import argparse
import ast
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest

from affhecke import central, cli, hecke, wakimoto
from affhecke.affweyl import group
from affhecke.laurent import LaurentPoly
from affhecke.rootdata import parse_group

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(tmp_path, capsys):
    code, out, _ = run(
        capsys, "table", "GL4", "--mu", "1,1,0,0", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out.startswith("Number of admissible alcoves: 33")
    assert "l=2 | 8 | 1, 1, 1 | 3, 3" in out
    assert "l=4 | 6 | 1 | -" in out


def test_table_rank_mismatch_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "table", "GL4", "--mu", "1,1,0", "--cache-dir", str(tmp_path)
    )
    assert code == 2
    assert "coordinates" in err


def test_table_nondominant_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "table", "GL4", "--mu", "0,1,1,0", "--cache-dir", str(tmp_path)
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [("table", "GL3", "--mu", "1,0,0"), ("check", "golden", "GL3", "--mu", "2,2,0")],
)
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(tmp_path, capsys, argv, jobs):
    code, out, err = run(capsys, *argv, "--jobs", jobs, "--cache-dir", str(tmp_path))
    assert code == 2
    assert "--jobs" in err and out == ""


@pytest.mark.parametrize(
    "argv", [("table", "GL1", "--mu", "1"), ("query", "adm", "GL1", "--mu", "1")]
)
def test_gl1_has_no_roots_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2
    assert "GL requires n >= 2" in err and out == ""


def test_table_json_and_csv(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "table",
        "GSp4",
        "--mu",
        "1,1,0,0",
        "--format",
        "json",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible_count"] == 13
    assert len(payload["rows"]) == 13
    assert payload["run_config"]["group"] == "GSp4"
    assert payload["mu"] == payload["run_config"]["mu"] == "1,1,0,0"
    code, out, _ = run(
        capsys,
        "table",
        "GSp4",
        "--mu",
        "1,1,0,0",
        "--format",
        "csv",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    assert out.splitlines()[0].startswith("element,length,")
    assert len(out.splitlines()) == 14


def test_query_adm_count(tmp_path, capsys):
    code, out, _ = run(capsys, "query", "adm", "GL4", "--mu", "1,1,0,0")
    assert code == 0
    assert len(out.strip().splitlines()) == 33


def test_query_kl(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "query",
        "kl",
        "GL4",
        "t[0,0,0,0]*w[s2]",
        "t[0,0,0,0]*w[s2.s1.s3.s2]",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    assert out.strip() == "1*v^0+1*v^2"
    # gap-2 pair gives 1
    code, out, _ = run(
        capsys,
        "query",
        "kl",
        "GL4",
        "t[0,0,0,0]*w[s1]",
        "t[0,0,0,0]*w[s1.s2.s1]",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    assert out.strip() == "1*v^0"


def test_query_parse_failure(capsys):
    code, _, err = run(capsys, "query", "kl", "GL4", "nonsense", "t[0,0,0,0]*w[]")
    assert code == 2


def test_query_theta_decomposition_wellposed(capsys):
    code1, out1, _ = run(capsys, "query", "theta", "GL2", "--lam", "1,0")
    code2, out2, _ = run(capsys, "query", "theta", "GL2", "--lam", "1,0")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip() == "t[1,0]*w[] 1*v^-1"


#: sha256 of the stdout of `query`, in text and in JSON, as the LaurentPoly
#: products computed it: the widest packed digits (kottwitz G2 4,0), the
#: benchmark's trace case, a central element and the Bernstein function of
#: a coweight that is not dominant
QUERY_DIGESTS = {
    "kottwitz GL5 --mu 2,1,0,0,0": (
        "7dcacc391583842becf1b375b69c4444399e9f07db820e8727494424233aeeca",
        "879cf6cd9ddb61645b879440bf5ac593864a6f602a756030c37a4f89153ab017",
    ),
    "kottwitz G2 --mu 4,0": (
        "635647b9287dff27e15444c6b07539f0c453917e2654d792e8925a55500c2b9f",
        "ee2227782ae071db07139e16172cc1c17a5588709de87f4377dff8e549d6cb8c",
    ),
    "z GSp4 --lam 2,1,1,0": (
        "efca18ffb4fb502db602b0aeeff349627b8234a8efd64d010b7ecb266065c3d6",
        "61a9eba102948a60e2006f3a8bd7cbf351624e1c1f2172487039ca1f93770d62",
    ),
    "theta GL4 --lam 0,2,-1,1": (
        "d1b6dedcb39a18922483d8006c18a70ad82ba0689cbcce39e2fd9f9a49844c93",
        "75d34417879362d7309a06d63282fb0c57f1a5224d443fe79d45542a7b6f337b",
    ),
}


@pytest.mark.parametrize("query", sorted(QUERY_DIGESTS))
def test_query_bytes_are_pinned(capsys, monkeypatch, query):
    monkeypatch.delenv("AFFHECKE_CACHE_DIR", raising=False)
    for fmt, want in zip(("text", "json"), QUERY_DIGESTS[query]):
        code, out, _ = run(capsys, "query", *query.split(), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == want, (query, fmt)


def test_query_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "query", "z", "GL2", "--lam", "1,0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    datum = parse_group("GL2")
    G = group(datum)
    terms = {G.decode(k): LaurentPoly.decode(v) for k, v in payload["terms"].items()}
    h = hecke.HeckeElement(hecke.context(datum), terms)
    assert h == central.bernstein_central(datum, (1, 0))


@pytest.mark.parametrize("query", ["kottwitz GL4 --mu 2,1,0,0", "z GSp4 --lam 2,1,1,0"])
def test_query_text_lines_are_the_json_terms_in_order(capsys, query):
    # one text form: the text lines are the JSON terms, in the order of the
    # group's sort_key (the JSON file itself sorts its keys as strings)
    _, text, _ = run(capsys, "query", *query.split())
    _, doc, _ = run(capsys, "query", *query.split(), "--format", "json")
    lines = [line.split(" ") for line in text.splitlines()]
    assert len(lines) > 10 and dict(lines) == json.loads(doc)["terms"]
    g = group(parse_group(query.split()[1]))
    keys = [g.sort_key(g.decode(x)) for x, _c in lines]
    assert keys == sorted(keys)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_query_encodes_each_coefficient_object_once(capsys, monkeypatch, fmt):
    # the 701 terms of the benchmark's trace case share 21 coefficient objects
    seen = []
    encode = LaurentPoly.encode
    monkeypatch.setattr(LaurentPoly, "encode", lambda p: seen.append(p) or encode(p))
    code, out, _ = run(capsys, "query", "kottwitz", "GL5", "--mu", "2,1,0,0,0", "--format", fmt)
    assert code == 0 and out.count("*w[") == 701
    assert len(seen) == len(set(map(id, seen))) == 21


def test_check_golden(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check", "golden", "GL3", "--mu", "2,2,0", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out.startswith("PASS")
    # GROUP after the options, read as parse_intermixed_args reads it
    assert run(capsys, "check", "golden", "--mu", "2,2,0", "GL3") == (0, out, "")
    code, out, err = run(
        capsys, "check", "golden", "GL3", "--mu", "1,1,0", "--cache-dir", str(tmp_path)
    )
    assert code == 2  # no golden table for that case
    assert (out, err) == ("", "error: no golden table for GL3 mu=1,1,0\n")


def test_check_golden_names_a_gsp_coweight_as_given(capsys):
    code, out, _ = run(capsys, "check", "golden", "GSp4", "--mu", "1,1,0,0")
    assert (code, out) == (0, "PASS golden-table-GSp4-1,1,0,0  (matches stored table)\n")
    code, out, err = run(capsys, "check", "golden", "GSp4", "--mu", "2,0,2,0")
    assert (code, out) == (2, "")
    assert err == "error: no golden table for GSp4 mu=2,0,2,0\n"


def test_check_properties(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "check",
        "properties",
        "GSp4",
        "--mu",
        "1,1,0,0",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
    assert any("minuscule-epsilon-sum" in line for line in lines)


#: sha256 of the stdout of `check oracles --seed 42 --depth 3 --samples 5`:
#: every entry, count and PASS line, in order
ORACLES_QUICK_DIGEST = "d22abe99d82edc0d67ca996d110f23549afc60a749bf5c4cf79ce00adb7dcbbe"


def test_check_oracles_quick(capsys):
    code, out, _ = run(
        capsys, "check", "oracles", "--seed", "42", "--depth", "3", "--samples", "5"
    )
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == ORACLES_QUICK_DIGEST


def test_check_oracles_reports_a_raise_as_its_own_fail_entry(capsys, monkeypatch):
    # an InvariantViolation from the library fails only the entry it is
    # raised in: every entry before and after it prints as in the quick run
    def raise_violation(v, w):
        raise hecke.InvariantViolation(f"no Wakimoto function for {v.encode()}")

    monkeypatch.setattr(wakimoto, "wakimoto_function", raise_violation)
    code, out, err = run(
        capsys, "check", "oracles", "--seed", "42", "--depth", "3", "--samples", "5"
    )
    assert (code, err) == (3, "")
    lines = out.splitlines()
    fails = [i for i, line in enumerate(lines) if not line.startswith("PASS ")]
    assert len(fails) == 1
    assert lines[fails[0]].startswith("FAIL wakimoto-closed-form  (no Wakimoto function for ")
    assert len(lines) - fails[0] == 10  # theta-q1, five q-analogue, three bernstein
    lines[fails[0]] = "PASS wakimoto-closed-form  (10 random (v,w) pairs, 0 mismatches)"
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == ORACLES_QUICK_DIGEST


def test_query_rpoly_deep_in_the_word(capsys):
    # l(y) = 1200 and R_{x,y} = q - 1: the R recursion runs 1200 steps deep
    code, out, err = run(
        capsys, "query", "rpoly", "GL2", "t[-599,599]*w[s1]", "t[600,-600]*w[]"
    )
    assert (code, out, err) == (0, "-1*v^0+1*v^2\n", "")


QUERY_X, QUERY_Y = "t[0,0,0]*w[]", "t[1,0,-1]*w[]"
#: a pair whose P, Q and R polynomials differ from each other
KL_X, KL_Y = "t[0,0,0]*w[]", "t[1,-1,0]*w[s2.s1]"

#: per query kind, an argv and the library call whose value it prints
QUERY_KINDS = {
    "adm GL4 --mu 1,1,0,0": lambda d: group(d).adm((1, 1, 0, 0)),
    f"kl GL3 {KL_X} {KL_Y}": lambda d: hecke.context(d).kl_poly(
        group(d).decode(KL_X), group(d).decode(KL_Y)),
    f"invkl GL3 {KL_X} {KL_Y}": lambda d: hecke.context(d).inv_kl_poly(
        group(d).decode(KL_X), group(d).decode(KL_Y)),
    f"rpoly GL3 {KL_X} {KL_Y}": lambda d: hecke.context(d).r_poly(
        group(d).decode(KL_X), group(d).decode(KL_Y)),
    "theta GL3 --lam 0,1,-1": lambda d: central.theta(d, (0, 1, -1)),
    "z GSp4 --lam 1,1,0,0": lambda d: central.bernstein_central(
        d, d.parse_coweight("1,1,0,0")),
    "kottwitz GL3 --mu 2,1,0": lambda d: central.kottwitz_function(d, (2, 1, 0)),
    f"wakimoto GL3 {QUERY_Y} t[0,1,0]*w[s1.s2]": lambda d: wakimoto.wakimoto_function(
        group(d).decode(QUERY_Y), group(d).decode("t[0,1,0]*w[s1.s2]"))[0],
}


def _printed(value):
    """The text and the JSON payload a query prints for a value: a tuple
    of elements, a polynomial or a Hecke element."""
    if isinstance(value, tuple):
        codes = [x.encode() for x in value]
        return "".join(c + "\n" for c in codes), {"count": len(codes), "elements": codes}
    if isinstance(value, LaurentPoly):
        return value.encode() + "\n", {"value": value.encode()}
    terms = value.encode()
    return "".join(f"{x} {c}\n" for x, c in terms.items()), {"terms": terms}


@pytest.mark.parametrize("query", list(QUERY_KINDS))
def test_query_prints_the_library_call_of_its_kind(capsys, monkeypatch, query):
    monkeypatch.delenv("AFFHECKE_CACHE_DIR", raising=False)
    kind, label, *rest = query.split()
    text, payload = _printed(QUERY_KINDS[query](parse_group(label)))
    assert run(capsys, "query", *query.split()) == (0, text, "")
    code, out, err = run(capsys, "query", *query.split(), "--format", "json")
    config = {"command": f"query {kind}", "group": label, "format": "json", "cache_dir": None,
              "mu": rest[1] if rest[0] in ("--mu", "--lam") else None}
    assert (code, err) == (0, "") and json.loads(out) == {"run_config": config, **payload}
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("query, message", [
    ("adm GL4", "query adm requires --mu"),
    ("kottwitz GL4", "query kottwitz requires --mu"),
    ("theta GL2", "query theta requires --lam"),
    ("z GL2", "query z requires --lam"),
    (f"kl GL3 {KL_X}", "query kl requires two element arguments"),
    (f"wakimoto GL3 {QUERY_X}", "query wakimoto requires two element arguments"),
])
def test_query_without_its_input_exit_2(capsys, query, message):
    assert run(capsys, "query", *query.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (f"query kl GL3 t[0,0]*w[] {QUERY_X}", "expected 3 coordinates in 't[0,0]*w[]'"),
    (f"query kl GL3 t[0,0,0]*w[r1] {QUERY_X}", "bad generator 'r1' in 't[0,0,0]*w[r1]'"),
    (f"query kl GL3 t[0,0,0]*w[s] {QUERY_X}", "bad generator 's' in 't[0,0,0]*w[s]'"),
    (f"query kl GL3 t[0,0,0]*w[s1x] {QUERY_X}", "bad generator 's1x' in 't[0,0,0]*w[s1x]'"),
    (f"query kl GL3 t[0,0,0]*w[x1] {QUERY_X}", "bad generator 'x1' in 't[0,0,0]*w[x1]'"),
    (f"query kl GL3 t[0,0,0]*w[s0] {QUERY_X}",
     "finite generator out of range in 't[0,0,0]*w[s0]'"),
    (f"query kl GL3 t[0,0,0]*w[s1.s3] {QUERY_X}",
     "finite generator out of range in 't[0,0,0]*w[s1.s3]'"),
    (f"query kl GL3 t[1,,0,-1]*w[] {QUERY_X}", "bad coordinate '' in 't[1,,0,-1]*w[]'"),
    (f"query kl GL3 t[1_0,0,-10]*w[] {QUERY_X}",
     "bad coordinate '1_0' in 't[1_0,0,-10]*w[]'"),
    (f"query kl GL3 't[ 1,0,-1]*w[]' {QUERY_X}", "bad coordinate ' 1' in 't[ 1,0,-1]*w[]'"),
    (f"query kl GL3 t[+1,0,-1]*w[] {QUERY_X}", "bad coordinate '+1' in 't[+1,0,-1]*w[]'"),
    (f"query kl GL3 t[0,0,0]*w[s\u0661] {QUERY_X}",
     "bad element encoding 't[0,0,0]*w[s\u0661]'"),
    (f"query rpoly GL3 t[0,0,0]*w[s1.s1] {QUERY_X}",
     "the word of 't[0,0,0]*w[s1.s1]' is not reduced"),
    (f"query kl GL3 t[1,0,0]*w[s2.s1.s2.s1] {QUERY_X}",
     "the word of 't[1,0,0]*w[s2.s1.s2.s1]' is not reduced"),
    ("query theta GL3 --mu 1,0,0 --lam 0,0,1 --format json", "query theta does not read --mu"),
    ("query adm GL3 --mu 1,0,0 't[0,0,0]*w[]' junk", "query adm does not read element arguments"),
    ("query kl GL3 X Y --mu 5,5 --format json", "query kl does not read --mu"),
    ("table GSp4 --mu 1,0", "GSp_4 coweight needs 4 coordinates"),
    ("table G2 --mu 1", "G2 coweight needs 2 or 3 coordinates"),
    ("table GLx --mu 1,0", "bad group label 'GLx'"),
    ("table SO5 --mu 1,0", "unknown group label 'SO5'"),
    ("check properties GL3", "check properties requires GROUP and --mu"),
    ("check golden", "check golden requires GROUP and --mu"),
    ("check oracles --depth 0", "--depth must be at least 1, got 0"),
    ("check oracles --depth -1", "--depth must be at least 1, got -1"),
    ("check oracles --samples -3", "--samples must be at least 1, got -3"),
    ("check properties GL3 --mu 1,0,0 --samples 0", "--samples must be at least 1, got 0"),
])
def test_rejected_input_exit_2_with_one_error_line(capsys, argv, message):
    assert run(capsys, *shlex.split(argv)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [["query", "adm", "GL3"], ["table", "GL3"]])
@pytest.mark.parametrize("mu, entry", [
    ("1,,0,0", ""),
    ("1,0,0,", ""),
    ("+1,0,0", "+1"),
    ("１,0,0", "１"),
    (" 1 , 0,0", " 1 "),
    ("0_1,0,0", "0_1"),
])
def test_malformed_coweight_exit_2(capsys, command, mu, entry):
    # each entry of a coweight is -?[0-9]+ in ASCII: no blank, sign or
    # underscore that int() would forgive, and no empty entry dropped
    expected = (2, "", f"error: bad coordinate {entry!r} in {mu!r}\n")
    assert run(capsys, *command, "--mu", mu) == expected


@pytest.mark.parametrize("label", ["GL+4", "GL 4", "GL٤", "GL1_0", "GSp0_6"])
def test_group_rank_is_ascii_digits(capsys, label):
    expected = (2, "", f"error: bad group label {label!r}\n")
    assert run(capsys, "table", label, "--mu", "1,0,0,0") == expected


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize(
    "argv, value",
    [
        (["query", "kl", "GL3", QUERY_X, QUERY_Y, "--format", "json"], "1*v^0"),
        (["query", "invkl", "GL3", QUERY_X, QUERY_Y, "--format", "json"], "1*v^0"),
        (
            ["query", "rpoly", "GL3", QUERY_X, QUERY_Y, "--format", "json"],
            "1*v^0+-3*v^2+4*v^4+-3*v^6+1*v^8",
        ),
        (["check", "golden", "GL3", "--mu", "2,2,0"], None),
        (["check", "properties", "GL3", "--mu", "2,2,0"], None),
    ],
    ids=["query-kl", "query-invkl", "query-rpoly", "check-golden", "check-properties"],
)
def test_only_table_uses_the_kl_cache(tmp_path, capsys, monkeypatch, argv, value, via):
    # query and check accept a cache directory, and query echoes it, but
    # neither loads nor saves the KL cache
    def fail(cache, hctx):
        raise AssertionError(f"{' '.join(argv[:2])} touched the KL cache")

    monkeypatch.setattr(hecke.KLCache, "load_into", fail)
    monkeypatch.setattr(hecke.KLCache, "save_from", fail)
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    cache = tmp_path / "klc"
    cache.mkdir()
    if via == "flag":
        monkeypatch.delenv("AFFHECKE_CACHE_DIR", raising=False)
        argv = [*argv, "--cache-dir", str(cache)]
    else:
        monkeypatch.setenv("AFFHECKE_CACHE_DIR", str(cache))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert list(cache.iterdir()) == []
    if value is not None:
        doc = json.loads(out)
        assert doc["value"] == value and doc["run_config"]["cache_dir"] == str(cache)


def _counting_loads(monkeypatch):
    """Records the count each KL cache load returns."""
    loads = []
    load_into = hecke.KLCache.load_into

    def counting(cache, hctx):
        loads.append(load_into(cache, hctx))
        return loads[-1]

    monkeypatch.setattr(hecke.KLCache, "load_into", counting)
    return loads


def test_no_cache_directory_reads_and_writes_no_file(tmp_path):
    env = dict(os.environ)
    env.pop("AFFHECKE_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    kl = ["query", "kl", "GL3", "t[0,0,0]*w[]", "t[1,0,-1]*w[]", "--format", "json"]
    for argv in (
        ["table", "GL3", "--mu", "2,2,0", "--format", "json"],
        kl,
        ["check", "golden", "GL3", "--mu", "2,2,0"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "affhecke.cli", *argv],
            capture_output=True, env=env, cwd=tmp_path, check=True,
        )
        if "--format" in argv:
            assert json.loads(proc.stdout)["run_config"]["cache_dir"] is None
    assert list(tmp_path.iterdir()) == []


def test_cache_env_var_selects_the_directory(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "from-env"
    monkeypatch.setenv("AFFHECKE_CACHE_DIR", str(cache))
    code, out, _ = run(capsys, "table", "GL3", "--mu", "2,2,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["run_config"]["cache_dir"] == str(cache)
    assert (cache / "klcache_GL3.txt").is_file()


@pytest.mark.parametrize(
    "flag, env, want",
    [(None, None, None), ("", "", None), (None, "E", "E"), ("", "E", "E"), ("F", "E", "F")],
)
def test_cache_dir_flag_then_env_then_none(monkeypatch, flag, env, want):
    if env is None:
        monkeypatch.delenv("AFFHECKE_CACHE_DIR", raising=False)
    else:
        monkeypatch.setenv("AFFHECKE_CACHE_DIR", env)
    argv = ["table", "GL3", "--mu", "1,0,0"] + (["--cache-dir", flag] if flag is not None else [])
    assert cli._cache_dir(cli.parse_args(argv)) == want


def test_non_canonical_cache_record_is_rejected(tmp_path, capsys, monkeypatch):
    # a repeated exponent decodes to another P: 1 + q + 2q read as 1 + 2q
    cache = str(tmp_path)
    argv = ("table", "GL4", "--mu", "2,1,0,0", "--cache-dir", cache)
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    path = os.path.join(cache, "klcache_GL4.txt")
    with open(path, "rb") as fh:
        full = fh.read()
    lines = full.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.endswith(b" 1*v^0+1*v^2\n"))
    lines[k] = lines[k][:-1] + b"+2*v^2\n"
    with open(path, "wb") as fh:
        fh.write(b"".join(lines))
    loads = _counting_loads(monkeypatch)
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == cold
    assert loads == [0]
    with open(path, "rb") as fh:
        assert fh.read() == full


def test_cache_reused_and_rebuilt(tmp_path, capsys):
    cache = str(tmp_path / "klc")
    code, out1, _ = run(capsys, "table", "GL3", "--mu", "2,2,0", "--cache-dir", cache)
    assert code == 0
    cache_file = os.path.join(cache, "klcache_GL3.txt")
    with open(cache_file, "rb") as fh:
        cold = fh.read()
    # intact cache reproduces the table
    code, out2, _ = run(capsys, "table", "GL3", "--mu", "2,2,0", "--cache-dir", cache)
    assert code == 0 and out1 == out2
    # corrupt cache is ignored and rebuilt
    with open(cache_file, "w") as fh:
        fh.write("not a cache at all\n")
    code, out3, _ = run(capsys, "table", "GL3", "--mu", "2,2,0", "--cache-dir", cache)
    assert code == 0 and out1 == out3
    header = open(cache_file).readline()
    assert header.startswith("klcache v1 GL3")
    # by the context that wrote the file, too: rebuilt whole
    with open(cache_file, "rb") as fh:
        assert fh.read() == cold


@pytest.mark.parametrize("where", ["header", "record"])
def test_cache_with_a_non_ascii_byte_is_rebuilt(tmp_path, capsys, monkeypatch, where):
    # the file is ignored as any other garbled file: the table is the one a
    # run without a cache prints, and the file is written anew
    monkeypatch.delenv("AFFHECKE_CACHE_DIR", raising=False)
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    code, plain, _ = run(capsys, "table", "GL3", "--mu", "2,2,0")
    assert code == 0
    cache = tmp_path / "klc"
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    assert run(capsys, "table", "GL3", "--mu", "2,2,0", "--cache-dir", str(cache))[:2] == (0, plain)
    path = cache / "klcache_GL3.txt"
    cold = path.read_bytes()
    lines = cold.splitlines(keepends=True)
    if where == "header":
        path.write_bytes(b"klcache v1 GL3 \xe9\n" + b"".join(lines[1:]))
    else:
        path.write_bytes(b"".join(lines[:-1]) + lines[-1].replace(b"*v^", b"*\xe9^", 1))
    loads = _counting_loads(monkeypatch)
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    code, out, err = run(capsys, "table", "GL3", "--mu", "2,2,0", "--cache-dir", str(cache))
    assert (code, out, err) == (0, plain, "")
    assert loads == [0]
    assert path.read_bytes() == cold


def _fresh_table(capsys, monkeypatch, cache):
    """`table GL4 --mu 1,1,0,0` as a new process would run it."""
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    code, out, _ = run(capsys, "table", "GL4", "--mu", "1,1,0,0", "--cache-dir", cache)
    assert code == 0
    return out


def test_warm_table_leaves_the_cache_file_alone(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path)
    cold = _fresh_table(capsys, monkeypatch, cache)
    path = os.path.join(cache, "klcache_GL4.txt")
    before = os.stat(path)
    assert _fresh_table(capsys, monkeypatch, cache) == cold
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_second_table_writes_a_fresh_directory_as_a_cold_run_does(tmp_path, capsys, monkeypatch):
    # the context of the first run holds every column already; the second
    # run's fresh directory must still get the cold bytes, and a warm run,
    # in that process or a new one, must not save
    cold_dir, fresh_dir = tmp_path / "cold", tmp_path / "fresh"
    cold = _fresh_table(capsys, monkeypatch, str(cold_dir))
    code, out, _ = run(capsys, "table", "GL4", "--mu", "1,1,0,0", "--cache-dir", str(fresh_dir))
    assert code == 0 and out == cold
    name = "klcache_GL4.txt"
    assert (fresh_dir / name).read_bytes() == (cold_dir / name).read_bytes()
    saves = []
    monkeypatch.setattr(hecke.KLCache, "save_from", lambda cache, hctx: saves.append(hctx))
    code, out, _ = run(capsys, "table", "GL4", "--mu", "1,1,0,0", "--cache-dir", str(fresh_dir))
    assert code == 0 and out == cold
    assert _fresh_table(capsys, monkeypatch, str(fresh_dir)) == cold
    assert saves == []


def test_table_that_adds_columns_rewrites_the_cache(tmp_path, capsys, monkeypatch):
    # Adm(2,2,0) lies in Adm(3,1,0): a 3,1,0 run loads the 2,2,0 file whole,
    # solves the rest, and rewrites the file as a cold 3,1,0 run writes it
    cold_dir, grown_dir = tmp_path / "cold", tmp_path / "grown"
    loads = _counting_loads(monkeypatch)
    for mu, directory in (("3,1,0", cold_dir), ("2,2,0", grown_dir), ("3,1,0", grown_dir)):
        monkeypatch.setattr(hecke, "_CONTEXTS", {})
        code, _, _ = run(capsys, "table", "GL3", "--mu", mu, "--cache-dir", str(directory))
        assert code == 0
    assert loads[:2] == [0, 0] and loads[2] > 0
    name = "klcache_GL3.txt"
    assert (grown_dir / name).read_bytes() == (cold_dir / name).read_bytes()


def test_cache_missing_a_record_is_rewritten_whole(tmp_path, capsys, monkeypatch):
    # a column is trusted only whole: a file that lacks one record, or holds
    # one twice, is not loaded at all and is rewritten to the cold bytes
    cache = str(tmp_path)
    cold = _fresh_table(capsys, monkeypatch, cache)
    path = os.path.join(cache, "klcache_GL4.txt")
    with open(path, "rb") as fh:
        full = fh.read()
    lines = full.splitlines(keepends=True)
    dropped, repeated = lines[:5] + lines[6:], lines[:6] + lines[5:]
    loads = _counting_loads(monkeypatch)
    for damaged in (dropped, repeated):
        with open(path, "wb") as fh:
            fh.write(b"".join(damaged))
        assert _fresh_table(capsys, monkeypatch, cache) == cold
        with open(path, "rb") as fh:
            assert fh.read() == full
    assert loads == [0, 0]


def test_out_in_a_missing_directory_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(
        capsys, "table", "GL3", "--mu", "1,0,0", "--out", str(target),
        "--cache-dir", str(tmp_path / "klc"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


def test_cache_dir_that_is_a_file_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hecke, "_CONTEXTS", {})
    blocker = tmp_path / "klc"
    blocker.write_text("not a directory\n")
    code, out, err = run(capsys, "table", "GL3", "--mu", "1,0,0", "--cache-dir", str(blocker))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "not a directory\n"


def test_table_bytes_do_not_depend_on_the_process(tmp_path):
    # elements hash by identity, so set order follows the memory layout; a
    # second process whose objects sit elsewhere (after `junk` bytes objects)
    # must print the same table and write the same KL-cache file
    prelude = (
        "import runpy, sys; junk = [bytes(k % 200) for k in range({})]; "
        "sys.argv = ['affhecke', *sys.argv[1:]]; "
        "runpy.run_module('affhecke.cli', run_name='__main__')"
    )
    runs = []
    for seed, junk in (("0", 0), ("1", 7777)):
        cache = tmp_path / f"klc{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        env.pop("AFFHECKE_CACHE_DIR", None)
        argv = ["table", "GL4", "--mu", "2,1,0,0", "--cache-dir", str(cache)]
        proc = subprocess.run(
            [sys.executable, "-c", prelude.format(junk), *argv],
            capture_output=True, env=env, check=True,
        )
        files = {p.name: p.read_bytes() for p in sorted(cache.iterdir())}
        runs.append((proc.stdout, files))
    assert runs[0][1] and runs[0] == runs[1]


def test_cli_import_leaves_out_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    probe = "import sys, affhecke.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=env, check=True
    ).stdout.decode()
    assert out == "[]\n"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(
        capsys,
        "table",
        "G2",
        "--mu",
        "2,1,0",
        "--out",
        str(target),
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("Number of admissible alcoves: 41")


@pytest.mark.parametrize(
    "bits,where", [(6, "the KL column of"), (12, "the C''-coefficient of")], ids=["column", "solve"]
)
def test_packed_digits_too_narrow_exit_3(tmp_path, bits, where):
    # G2 3,0 needs more than 6-bit digits for its KL columns (P up to
    # 14 q^k) and more than 12 for the bound of the downward solve; with
    # digits that narrow, the guard ends the run before any decode
    prelude = (
        "import runpy, sys; from affhecke import hecke; hecke._K = {}; "
        "sys.argv = ['affhecke', *sys.argv[1:]]; "
        "runpy.run_module('affhecke.cli', run_name='__main__')"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cache = tmp_path / "klc"
    argv = ["table", "G2", "--mu", "3,0", "--cache-dir", str(cache)]
    proc = subprocess.run(
        [sys.executable, "-c", prelude.format(bits), *argv], capture_output=True, env=env
    )
    err = proc.stderr.decode()
    assert proc.returncode == 3 and proc.stdout == b""
    assert err.startswith(f"invariant violation: {where} ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not cache.exists() or list(cache.iterdir()) == []


def _src_env():
    env = dict(os.environ)
    env.pop("AFFHECKE_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_installed_command_is_the_entry_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["affhecke"]
    module, _colon, name = target.partition(":")
    tree = ast.parse((SRC / "affhecke" / "cli.py").read_text(encoding="utf-8"))
    [block] = [node for node in tree.body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert module == "affhecke.cli"
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (["table", "GL3", "--mu", "1,0,0"], 0),
        (["table", "GL9", "--mu", "1"], 2),
        (["table", "GL3", "--mu", "1,0,0", "--format", "json", "--out", "{}"], 0),
    ],
    ids=["stdout", "error", "out"],
)
def test_process_entry_ends_as_main_returns(tmp_path, capsys, argv, code):
    # `python -m affhecke.cli` exits through cli.run, which freezes the heap
    # after main; its exit code, streams and --out bytes are main's.  The
    # exit 3 of an invariant violation goes the same way in
    # test_packed_digits_too_narrow_exit_3.
    proc = subprocess.run(
        [sys.executable, "-m", "affhecke.cli", *(a.format(tmp_path / "spawned") for a in argv)],
        capture_output=True, env=_src_env(),
    )
    got = run(capsys, *(a.format(tmp_path / "in-process") for a in argv))
    assert got[0] == code
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == got
    if "--out" in argv:
        written = (tmp_path / "in-process").read_bytes()
        assert written and (tmp_path / "spawned").read_bytes() == written


def test_process_entry_freezes_the_heap_and_keeps_atexit():
    prelude = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
        "sys.argv = ['affhecke', *sys.argv[1:]]; "
        "runpy.run_module('affhecke.cli', run_name='__main__')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prelude, "table", "GL3", "--mu", "1,0,0"],
        capture_output=True, env=_src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.decode().startswith("Number of admissible alcoves: 7\n")
    assert proc.stderr == b"frozen True\n"


def test_main_leaves_the_collector_unfrozen(capsys):
    # only the process entry freezes: the tests, perfbench's in-process
    # runs and library callers keep a collector that sees every object
    before = gc.get_freeze_count()
    assert run(capsys, "table", "GL3", "--mu", "1,0,0")[0] == 0
    assert gc.get_freeze_count() == before


#: argparse's test for a negative number, which makes a word that starts
#: with "-" a positional, widened to words of comma-separated integers:
#: parse_args reads a coweight such as -1,0,0 as a value, where argparse
#: refused it as an unknown option
COWEIGHT_OR_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+(,-?\d+)+$")


@functools.cache
def reference_parser(coweights=True):
    """The argparse grammar the command line had before it read argv from
    cli.COMMANDS: the oracle for parse_args.  With coweights, a word of
    comma-separated integers is read as argparse read a negative number:
    the one way parse_args departs from argparse."""
    parser = argparse.ArgumentParser(prog="affhecke")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("table")
    p.add_argument("group")
    p.add_argument("--mu", required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out")
    p.add_argument("--cache-dir")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cli.cmd_table)
    p = sub.add_parser("query")
    p.add_argument(
        "kind", choices=("adm", "kl", "invkl", "rpoly", "theta", "z", "kottwitz", "wakimoto")
    )
    p.add_argument("group")
    p.add_argument("elements", nargs="*")
    p.add_argument("--mu")
    p.add_argument("--lam")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.add_argument("--cache-dir")
    p.set_defaults(fn=cli.cmd_query)
    p = sub.add_parser("check")
    p.add_argument("suite", choices=("properties", "oracles", "golden"))
    p.add_argument("group", nargs="?")
    p.add_argument("--mu")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--cache-dir")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cli.cmd_check)
    if coweights:
        for p in [parser, *sub.choices.values()]:
            p._negative_number_matcher = COWEIGHT_OR_NUMBER
    parser.commands = sub.choices
    return parser


X3, Y3 = "t[0,0,0]*w[]", "t[1,0,-1]*w[]"

#: argv vectors with the reading argparse gave them; each is checked
#: against the reference parser, so a wrong label here fails too
PARSER_CORPUS = [
    # --opt value and --opt=value; the defaults
    ("table GL5 --mu 1,1,0,0,0", "ok"),
    ("table GL5 --mu=1,1,0,0,0 --format=json --out=o.json --cache-dir=d --jobs=2", "ok"),
    ("query adm GL4 --mu 1,1,0,0", "ok"),
    ("check oracles", "ok"),
    # unique prefixes
    ("table GL3 --m 1,0,0 --f csv --o o --c d --j 3", "ok"),
    ("table GL3 --mu 1,0,0 --form=json --cache=d", "ok"),
    ("check oracles --se 1 --sa 2 --d 3", "ok"),
    ("query theta GL2 --l 1,0", "ok"),
    # options before, between or after positionals
    ("table --mu 1,0,0 GL3", "ok"),
    ("table --jobs 1 GL3 --mu 1,0,0 --format csv", "ok"),
    ("query --format json kl GL3 X3 Y3", "ok"),
    ("query kl --format json GL3 X3 Y3", "ok"),
    ("query kl GL3 X3 Y3 --format json", "ok"),
    ("check --seed 7 golden GL3 --mu 2,2,0", "ok"),
    ("check golden GL3 --mu 2,2,0", "ok"),
    # the last repeat wins
    ("table GL3 --mu 1,0,0 --mu 2,1,0 --format csv --format=json", "ok"),
    ("check oracles --seed 1 --seed=2 --jobs 3 --jobs 1", "ok"),
    # values that look like options
    ("table GL3 --mu 1,0,0 --jobs -3", "ok"),
    ("table GL3 --mu 1,0,0 --jobs=-3", "ok"),
    ("table GL3 --mu 1,0,0 --cache-dir ''", "ok"),
    ("table GL3 --mu=-1,0,0", "ok"),
    ("table GL3 --mu -1,0,0", "ok"),
    ("table GL3 --mu -1,-1,-2", "ok"),
    ("query theta GL3 --lam -1,0,1", "ok"),
    ("check oracles --seed -5", "ok"),
    ("table GL3 --mu 1,0,0 --out -", "ok"),
    ("table GL3 --mu '1, 0, 0'", "ok"),
    ("query theta GL3 --lam '-1 0 0'", "ok"),
    # -- ends the options
    ("table --mu 1,0,0 -- GL3", "ok"),
    ("query kl GL3 -- X3 Y3", "ok"),
    ("query adm GL3 -- --mu 1,0,0", "ok"),
    ("check oracles --", "ok"),
    ("check oracles -- GL3", "ok"),
    ("check -- oracles", "ok"),
    ("query kl GL3 -- X3 -- Y3", "ok"),
    # query with 0, 1 and 2 elements; check with and without GROUP
    ("query kl GL3", "ok"),
    ("query kl GL3 X3", "ok"),
    ("query kl GL3 X3 Y3", "ok"),
    ("query wakimoto GL3 X3 Y3 X3", "ok"),
    ("check properties GSp4 --mu 1,1,0,0", "ok"),
    ("check golden --mu 2,2,0", "ok"),
    # positionals after an option, read as parse_intermixed_args read them
    # (parse_args refused these): a "?" or "*" positional takes them, and a
    # trailing -- is dropped
    ("check golden --mu 2,2,0 GL3", "ok"),
    ("check --mu 2,2,0 golden --seed 7 GL3", "ok"),
    ("query kl GL3 X3 --format json Y3", "ok"),
    ("query kl --format json GL3 X3 --mu 1,0,0 -- Y3", "ok"),
    ("query kl GL3 --mu 1,0,0 X3 Y3", "ok"),
    ("table GL3 --mu 1,0,0 --", "ok"),
    ("query adm GL3 --mu 1,0,0 --", "ok"),
    ("check golden --mu 2,2,0 GL3 GL4", "error"),
    ("table GL3 --format json GL4 --mu 1,0,0", "error"),
    ("table GL3 --mu 1,0,0 -- GL4", "error"),
    ("check golden GL3 --mu 2,2,0 -- GL4", "error"),
    # help, at the top and per command, wherever argparse reached it
    ("-h", "help"),
    ("--help", "help"),
    ("--he", "help"),
    ("--bogus -h", "help"),
    ("-h table", "help"),
    ("table -h", "help"),
    ("table --help GL3", "help"),
    ("query kl GL3 X3 -h", "help"),
    ("check -h --seed x", "help"),
    ("table --bogus -h", "help"),
    ("table GL3 --mu 1,0,0 -hh", "help"),
    ("table -- -h", "error"),
    ("table --format xml -h", "error"),
    ("table GL3 --mu 1,0,0 -hx", "error"),
    ("table GL3 --mu 1,0,0 --help=x", "error"),
    # a coweight word in KIND is an invalid choice, as -1 there always was
    # (argparse took -1,0,0 for an unknown option and printed the help)
    ("query -1,0,0 -h", "error"),
    ("table -1,0,0 -h", "help"),
    # rejected: bad choices
    ("", "error"),
    ("tables GL3 --mu 1,0,0", "error"),
    ("-- table GL3 --mu 1,0,0", "error"),
    ("table GL3 --mu 1,0,0 --format xml", "error"),
    ("query csv GL3", "error"),
    ("query z GL3 --lam 1,0,0 --format csv", "error"),
    ("check everything", "error"),
    # rejected: missing --mu, GROUP or a value
    ("table GL3", "error"),
    ("table --mu 1,0,0", "error"),
    ("table GL3 -- --mu 1,0,0", "error"),
    ("query kl", "error"),
    ("check", "error"),
    ("table GL3 --mu", "error"),
    ("table GL3 --mu --jobs 1", "error"),
    ("table GL3 --mu -- 1,0,0", "error"),
    # rejected: unknown or ambiguous options, stray arguments
    ("table GL3 --mu 1,0,0 --bogus", "error"),
    ("table GL3 --mu 1,0,0 -x", "error"),
    ("--bogus table GL3 --mu 1,0,0", "error"),
    ("query kl GL3 --l 1,0 --lam=1", "ok"),
    ("check oracles --s 1", "error"),
    ("table GL3 --mu 1,0,0 --=x", "error"),
    ("table GL3 GL4 --mu 1,0,0", "error"),
    # rejected: non-integer --jobs, --seed, --depth, --samples
    ("table GL3 --mu 1,0,0 --jobs x", "error"),
    ("table GL3 --mu 1,0,0 --jobs 1.5", "error"),
    ("check oracles --seed x", "error"),
    ("check oracles --depth=", "error"),
    ("check oracles --samples 2.0", "error"),
]


#: marks a word after "--" that starts with "-" for parse_intermixed_args
SHIELD = "\x00"


def _intermixed(parser, argv):
    """vars() of parse_intermixed_args on the parser of argv's command.

    That call reads the options first and then every positional word as
    one run.  It strips a "--" in each of its two passes, so it would read
    the words after "--" that start with "-" as options or drop a second
    "--"; those words are shielded while it runs."""
    rest = argv[1:]
    cut = rest.index("--") + 1 if "--" in rest else len(rest)
    rest[cut:] = [SHIELD + a if a[:1] == "-" else a for a in rest[cut:]]
    values = vars(parser.commands[argv[0]].parse_intermixed_args(
        rest, argparse.Namespace(command=argv[0])))
    for name, value in values.items():
        if isinstance(value, list):
            values[name] = [a.removeprefix(SHIELD) for a in value]
        elif isinstance(value, str):
            values[name] = value.removeprefix(SHIELD)
    return values


def _reference(argv, coweights=True):
    """vars() of the argparse reading, or its exit code.  An argv that
    parse_args refused but parse_intermixed_args accepts, such as
    `check golden --mu 2,2,0 GL3`, gets the intermixed reading: parse_args
    closed a "?" or "*" positional with the first run of positionals that
    reached it and refused a "--" that no positional took, and
    cli.parse_args does neither."""
    parser = reference_parser(coweights)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as stop:
            code = stop.code
        if code == 2 and argv and argv[0] in parser.commands:
            try:
                return _intermixed(parser, argv)
            except SystemExit:
                pass
        return code


def _ours(argv):
    try:
        return vars(cli.parse_args(argv))
    except cli.ParseExit as stop:
        return stop.code


def _argv(line):
    return [{"X3": X3, "Y3": Y3}.get(a, a) for a in shlex.split(line)]


@pytest.mark.parametrize("line, reading", PARSER_CORPUS, ids=[c[0] for c in PARSER_CORPUS])
def test_parse_args_reads_argv_as_argparse_did(line, reading):
    argv = _argv(line)
    want = _reference(argv)
    assert ("ok" if isinstance(want, dict) else {0: "help", 2: "error"}[want]) == reading
    assert _ours(argv) == want


def test_parse_args_on_random_argv():
    # seeded vectors: a command's positionals with its options, each as
    # --opt value or --opt=value, cut to a prefix or not, inserted anywhere,
    # and now and then a stray word, help flag or --
    values = ["1,0,0", "-1,0,0", "-1,-1,-2", "", "json", "csv", "xml", "-3", "x", "--", "-"]
    positionals = {
        "table": ["GL3"], "query": ["kl", "GL3", X3, Y3], "check": ["golden", "GL3"],
    }
    stray = ["--", "-h", "-hh", "--bogus", "-x", "--s", "x", "a b", "-1", "--help=x"]
    good = {"--format": "json", "--jobs": "-3", "--seed": "7", "--depth": "3", "--samples": "5"}
    rng = random.Random(22)
    readings = {}
    for _ in range(1500):
        command = rng.choice(sorted(positionals))
        argv = positionals[command][: rng.choice((0, 1, 2, 3, 4, 4, 4))]
        for flag, *_ in cli.COMMANDS[command][3] * 2:
            if rng.random() < 0.3:
                value = good.get(flag, "1,0,0") if rng.random() < 0.6 else rng.choice(values)
                flag = flag[: rng.randint(3, len(flag))]
                # "--opt=--" is left out: see the test after this one
                attached = rng.random() < 0.3 and value != "--"
                words = [f"{flag}={value}"] if attached else [flag, value]
                at = rng.randint(0, len(argv))
                argv[at:at] = words
        if rng.random() < 0.3:
            argv.insert(rng.randint(0, len(argv)), rng.choice(stray))
        argv.insert(0 if rng.random() < 0.95 else rng.randint(0, len(argv)), command)
        want = _reference(argv)
        readings[type(want)] = readings.get(type(want), 0) + 1
        assert _ours(argv) == want, argv
    assert readings[dict] > 150 and readings[int] > 500


@pytest.mark.parametrize(
    "argv", [["table", "GL3", "--mu", "-1,-1,-2"], ["query", "theta", "GL3", "--lam", "-1,0,1"]]
)
def test_a_negative_coweight_may_follow_its_option(capsys, argv):
    # argparse refused these; they now read as --mu=-1,-1,-2 and --lam=-1,0,1
    assert _reference(argv, coweights=False) == 2
    attached = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    got = run(capsys, *argv)
    assert got[0] == 0 and got == run(capsys, *attached)


@pytest.mark.parametrize("line", [c[0] for c in PARSER_CORPUS if c[1] == "error"])
def test_rejected_argv_exits_2_with_a_message_on_stderr(capsys, line):
    code, out, err = run(capsys, *_argv(line))
    assert (code, out) == (2, "")
    assert err.startswith("usage: affhecke") and ": error: " in err


@pytest.mark.parametrize("argv", [["-h"], ["table", "--help"], ["query", "-h"], ["check", "-h"]])
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    command = argv[0] if len(argv) == 2 else None
    assert out.startswith(f"usage: affhecke {command or '[-h]'}")
    if command:
        _fn, _about, positionals, options = cli.COMMANDS[command]
        assert all(name in out for name, *_ in positionals)
        assert all(flag in out for flag, *_ in options)


def test_an_attached_double_dash_is_the_value():
    # argparse dropped the "--" of "--out=--" and read an empty list, which
    # --jobs could not compare with 1; the value is now the text given
    args = cli.parse_args(["table", "GL3", "--mu", "1,0,0", "--out=--", "--cache-dir=--"])
    assert (args.out, args.cache_dir) == ("--", "--")
    with pytest.raises(cli.ParseExit) as stop:
        cli.parse_args(["table", "GL3", "--mu", "1,0,0", "--jobs=--"])
    assert stop.value.code == 2
