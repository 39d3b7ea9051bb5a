import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from affhecke import cli, hecke

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
    from affhecke.hecke import context
    from affhecke.rootdata import create

    H = context(create("GL", 2))
    h = H.from_encoding(payload["terms"])
    from affhecke.central import bernstein_central

    assert h == bernstein_central(create("GL", 2), (1, 0))


def test_check_golden(tmp_path, capsys):
    code, out, _ = run(
        capsys, "check", "golden", "GL3", "--mu", "2,2,0", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out.startswith("PASS")
    code, _, err = run(
        capsys, "check", "golden", "GL3", "--mu", "1,1,0", "--cache-dir", str(tmp_path)
    )
    assert code == 2  # no golden table for that case


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
ORACLES_QUICK_DIGEST = "9aaa07169b2164161572d166001bee1aa5b5f228eb8af7bab495921f15baec2f"


def test_check_oracles_quick(capsys):
    code, out, _ = run(
        capsys, "check", "oracles", "--seed", "42", "--depth", "3", "--samples", "5"
    )
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == ORACLES_QUICK_DIGEST


def test_query_rpoly_deep_in_the_word(capsys):
    # l(y) = 1200 and R_{x,y} = q - 1: the R recursion runs 1200 steps deep
    code, out, err = run(
        capsys, "query", "rpoly", "GL2", "t[-599,599]*w[s1]", "t[600,-600]*w[]"
    )
    assert (code, out, err) == (0, "-1*v^0+1*v^2\n", "")


QUERY_X, QUERY_Y = "t[0,0,0]*w[]", "t[1,0,-1]*w[]"


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
    assert cli._cache_dir(cli.build_parser().parse_args(argv)) == want


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
