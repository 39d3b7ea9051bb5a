"""The names the benchmark (perfbench/) binds in affhecke must keep resolving.

perfbench/spans.py wraps the entry points it lists by attribute, and
perfbench/child.py reads hecke._CONTEXTS and HeckeContext._col_done and
patches hecke.KLCache.load_into, which `table --cache-dir` must call.
perfbench/bench.py runs `table` with `--cache-dir` and `--jobs 1` and
compares stdout with a golden table.  A refactor that renames or removes
any of them would break the benchmark runs, not this suite.
"""

import importlib.resources
import importlib.util
import pathlib

from affhecke import cli, hecke

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_entry_point_resolves():
    points = _spans().entry_points()
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
