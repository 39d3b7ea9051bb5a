"""The names the benchmark (perfbench/) binds in affhecke must keep resolving.

perfbench/child.py and the set-up probe of perfbench/bench.py read
affhecke.parse_group, group and context off a bare `import affhecke`,
perfbench/spans.py wraps the entry points it lists by attribute, and
perfbench/child.py reads hecke._CONTEXTS and HeckeContext._col_done and
patches hecke.KLCache.load_into, which `table --cache-dir` must call.
perfbench/bench.py runs `table` with `--cache-dir` and `--jobs 1` and
compares stdout with a golden table, and checks `query kottwitz` output
with KottwitzWorkload.check.  A refactor that renames or removes any of
them, or that would fail one of those checks, would break the benchmark
runs; these tests make it break this suite first.
"""

import importlib.resources
import importlib.util
import os
import pathlib
import subprocess
import sys

from affhecke import cli, hecke

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_package_names_resolve_in_a_fresh_process():
    # the set-up probe as bench.py runs it, then the modules that
    # spans.entry_points imports, in a process that has imported nothing
    probe = _load("bench").SETUP_PROBE + "; import spans; print(len(spans.entry_points()))"
    src = PERFBENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, "GL3"], capture_output=True, env=env, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(_load("spans").entry_points())


def test_every_traced_entry_point_resolves():
    points = _load("spans").entry_points()
    assert points
    for name, owner, attr, _hook in points:
        assert callable(getattr(owner, attr, None)), name


def test_warm_cache_hooks_resolve(tmp_path, monkeypatch):
    # child.py cli-warm patches KLCache.load_into on the class, runs the
    # table, and counts the columns solved in hecke._CONTEXTS: a warm run in
    # a new process must hand its context to the patched load and solve none
    argv = ["table", "GL3", "--mu", "2,2,0", "--cache-dir", str(tmp_path), "--jobs", "1"]
    load_into = hecke.KLCache.load_into
    seen = []

    def counting(cache, hctx):
        seen.append((hctx, load_into(cache, hctx)))
        return seen[-1][1]

    monkeypatch.setattr(hecke.KLCache, "load_into", counting)
    for warm in (False, True):
        monkeypatch.setattr(hecke, "_CONTEXTS", {})
        assert cli.main(argv) == 0
        (hctx,) = hecke._CONTEXTS.values()
        assert seen[-1][0] is hctx and bool(seen[-1][1]) is warm
        assert isinstance(hctx._col_done, set) and bool(hctx._col_done) is not warm
    assert len(seen) == 2


def test_table_argv_of_the_benchmark(tmp_path, capsys):
    argv = ["table", "GL3", "--mu", "2,2,0", "--cache-dir", str(tmp_path / "klcache")]
    assert cli.main(argv + ["--jobs", "1"]) == 0
    golden = importlib.resources.files("affhecke").joinpath("golden", "GL3_2-2-0.txt")
    assert capsys.readouterr().out == golden.read_text(encoding="ascii")


def test_trace_workload_check_passes(tmp_path, monkeypatch, capsys):
    # the trace-gl5 workload: Adm from `query adm` in set-up, then each
    # iteration's `query kottwitz` output must have that support, even
    # powers of v only, and the bytes of the first iteration
    monkeypatch.chdir(tmp_path)
    work = _load("bench").WORKLOADS["trace-gl5"][0]()
    kind, argv = work.program()
    assert kind == "cli"
    assert cli.main(["query", "adm", work.group, "--mu", work.mu]) == 0
    work.adm = capsys.readouterr().out.split()
    for _ in range(2):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode("ascii")
        assert work.check(tmp_path, out) is None
    # and the check sees a missing term
    assert work.check(tmp_path, out[: out.rindex(b"\n", 0, -1) + 1]) is not None
