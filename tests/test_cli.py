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


def test_check_oracles_quick(capsys):
    code, out, _ = run(
        capsys, "check", "oracles", "--seed", "42", "--depth", "3", "--samples", "5"
    )
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_query_rpoly_skips_kl_cache(tmp_path, capsys, monkeypatch):
    from affhecke import hecke
    from affhecke.rootdata import create

    cache = str(tmp_path)
    x, y = "t[0,0,0]*w[]", "t[1,0,-1]*w[]"
    code, _, _ = run(capsys, "query", "kl", "GL3", x, y, "--cache-dir", cache)
    assert code == 0 and os.listdir(cache)  # the KL cache is not empty

    def fail(cache, hctx):
        raise AssertionError("query rpoly read the KL cache")

    monkeypatch.setattr(hecke.KLCache, "load_into", fail)
    code, out, _ = run(capsys, "query", "rpoly", "GL3", x, y, "--cache-dir", cache)
    assert code == 0
    H = hecke.HeckeContext(create("GL", 3))
    r = H.r_poly(H.group.decode(x), H.group.decode(y))
    assert r and out == r.encode() + "\n"


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


def test_cache_missing_a_record_is_rewritten_whole(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path)
    cold = _fresh_table(capsys, monkeypatch, cache)
    path = os.path.join(cache, "klcache_GL4.txt")
    with open(path, "rb") as fh:
        full = fh.read()
    lines = full.splitlines(keepends=True)
    with open(path, "wb") as fh:
        fh.write(b"".join(lines[:5] + lines[6:]))
    assert _fresh_table(capsys, monkeypatch, cache) == cold
    with open(path, "rb") as fh:
        assert fh.read() == full


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
