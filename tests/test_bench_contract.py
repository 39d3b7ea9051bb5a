"""The names the benchmark (perfbench/) binds in affhecke must keep resolving.

perfbench/spans.py wraps the entry points it lists by attribute, and
perfbench/child.py reads hecke._CONTEXTS and HeckeContext._col_done and
patches hecke.KLCache.load_into.  A refactor that renames any of them
would break the traced and warm-cache benchmark runs, not this suite.
"""

import importlib.util
import pathlib

from affhecke import hecke
from affhecke.rootdata import create

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


def test_warm_cache_hooks_resolve(monkeypatch):
    assert isinstance(hecke._CONTEXTS, dict)
    assert isinstance(hecke.HeckeContext(create("GL", 3))._col_done, set)
    assert callable(hecke.KLCache.load_into)
    # load_cache goes through the class attribute, where cli-warm patches it
    seen = []
    monkeypatch.setattr(
        hecke.KLCache, "load_into", lambda cache, hctx: seen.append(hctx) or 0
    )
    hctx = hecke.HeckeContext(create("GL", 3))
    hctx.load_cache("unused-directory")
    assert seen == [hctx]
