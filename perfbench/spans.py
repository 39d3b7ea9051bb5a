"""Span recording around affhecke's layer entry points, and the per-layer
metrics derived from the spans.

The recorder runs inside a traced child (child.py --spans FILE).  It
replaces the public entry points listed by entry_points() with wrappers
that record one span per call: name, start, end and the enclosing span.
Spans stay in flat in-memory arrays and are written to FILE once, when
the child exits.  No affhecke source file is touched.

The analysis (load, layer_metrics) runs in the benchmark process.  A
span's self time is its duration minus the durations of its direct
children.  An inclusive time counts a span only when no span of the same
name is open around it, so recursion (r_poly) is not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

PRODUCTS = ("mul_gen_T", "mul_gen_T_inv", "gen_mul_T", "mul_T", "mul_T_inv", "inv_T", "mul")
RENDERS = ("render_text", "render_csv", "render_json")


def _count_true(counters, result, args):
    if result is True:
        counters["affweyl.leq_true"] = counters.get("affweyl.leq_true", 0) + 1


def _adm_size(counters, result, args):
    counters["affweyl.adm_size"] = len(result)


def _records_loaded(counters, result, args):
    counters["hecke.cache_records_loaded"] = (
        counters.get("hecke.cache_records_loaded", 0) + result
    )


def _cache_bytes(counters, result, args):
    cache, hctx = args[0], args[1]
    path = cache.path(hctx.datum)
    if os.path.exists(path):
        counters["hecke.cache_bytes"] = os.path.getsize(path)


def entry_points():
    """(span name, owner, attribute, counter hook) for every wrapped entry point.

    The owner is a class or a module.  A module function is replaced in
    every affhecke module that imported it by name."""
    from affhecke import affweyl, central, hecke, laurent, multiplicity, rootdata

    group, ctx = affweyl.AffineWeylGroup, hecke.HeckeContext
    out = [
        ("rootdata.create", rootdata, "create", None),
        ("affweyl.mul_gen", group, "mul_gen", None),
        ("affweyl.leq", group, "leq", _count_true),
        ("affweyl.below", group, "below", None),
        ("affweyl.adm", group, "adm", _adm_size),
        ("affweyl.encode", group, "encode", None),
        ("affweyl.decode", group, "decode", None),
        ("hecke.kl_poly", ctx, "kl_poly", None),
        ("hecke.r_poly", ctx, "r_poly", None),
        ("hecke.cache_load", hecke.KLCache, "load_into", _records_loaded),
        ("hecke.cache_save", hecke.KLCache, "save_from", _cache_bytes),
        ("laurent.mul", laurent.LaurentPoly, "__mul__", None),
        ("central.kottwitz", central, "kottwitz_function", None),
        ("central.theta", central, "theta", None),
        ("multiplicity.compute", multiplicity, "compute", None),
    ]
    out += [(f"hecke.{name}", ctx, name, None) for name in PRODUCTS]
    out += [(f"multiplicity.{name}", multiplicity, name, None) for name in RENDERS]
    return out


class Recorder:
    """In-memory span store for one traced process (one iteration)."""

    def __init__(self):
        self.names = []
        self.name_id = array("I")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters = {}
        self._open = [-1]

    def wrap(self, name, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_spans, counters, clock = self._open, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0)
            open_spans.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()
            if hook is not None:
                hook(counters, result, args)
            return result

        return wrapper

    def install(self):
        import affhecke.cli  # noqa: F401  (binds the names to patch below)

        modules = [m for k, m in sys.modules.items() if k.startswith("affhecke") and m]
        for name, owner, attr, hook in entry_points():
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)

    def write(self, path):
        header = {"names": self.names, "counters": self.counters, "n": len(self.name_id)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


class SpanSet:
    """The spans of one iteration, in the order the calls started."""

    def __init__(self, names, name_id, parent, start, end, counters):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.counters = counters


def load(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("I", "q", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, header["n"])
            arrays.append(arr)
    return SpanSet(header["names"], *arrays, header["counters"])


def aggregate(spans):
    """Per span name: (calls, inclusive ns, self ns)."""
    k = len(spans.names)
    calls, incl, self_ns = [0] * k, [0] * k, [0] * k
    name_id, parent, start, end = spans.name_id, spans.parent, spans.start, spans.end
    child_ns = array("q", [0]) * len(name_id)
    open_count = [0] * k
    stack = []
    for i in range(len(name_id)):
        nid, p = name_id[i], parent[i]
        while stack and stack[-1] != p:
            open_count[name_id[stack.pop()]] -= 1
        dur = end[i] - start[i]
        calls[nid] += 1
        if open_count[nid] == 0:
            incl[nid] += dur
        if p >= 0:
            child_ns[p] += dur
        stack.append(i)
        open_count[nid] += 1
    for i in range(len(name_id)):
        self_ns[name_id[i]] += end[i] - start[i] - child_ns[i]
    return {
        name: (calls[j], incl[j], self_ns[j]) for j, name in enumerate(spans.names)
    }


def layer_metrics(spans):
    """Every per-layer metric of BENCHMARK.json except trace.overhead_ratio."""
    agg = aggregate(spans)
    cnt = spans.counters

    def calls(*names):
        return sum(agg.get(n, (0, 0, 0))[0] for n in names)

    def incl_s(*names):
        return sum(agg.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(*names):
        return sum(agg.get(n, (0, 0, 0))[2] for n in names) / 1e9

    products = [f"hecke.{n}" for n in PRODUCTS]
    leq_calls = calls("affweyl.leq")
    return {
        "affweyl.mul_gen_calls": calls("affweyl.mul_gen"),
        "affweyl.mul_gen_self_s": self_s("affweyl.mul_gen"),
        "affweyl.leq_calls": leq_calls,
        "affweyl.leq_s": incl_s("affweyl.leq"),
        "affweyl.leq_self_s": self_s("affweyl.leq"),
        "affweyl.leq_true_ratio": cnt.get("affweyl.leq_true", 0) / leq_calls if leq_calls else 0.0,
        "affweyl.below_calls": calls("affweyl.below"),
        "affweyl.below_s": incl_s("affweyl.below"),
        "hecke.kl_poly_calls": calls("hecke.kl_poly"),
        "hecke.kl_poly_s": incl_s("hecke.kl_poly"),
        "hecke.kl_poly_self_s": self_s("hecke.kl_poly"),
        "hecke.r_poly_calls": calls("hecke.r_poly"),
        "hecke.r_poly_s": incl_s("hecke.r_poly"),
        "laurent.mul_calls": calls("laurent.mul"),
        "laurent.mul_self_s": self_s("laurent.mul"),
        "hecke.cache_load_s": incl_s("hecke.cache_load"),
        "hecke.cache_records_loaded": cnt.get("hecke.cache_records_loaded", 0),
        "affweyl.decode_calls": calls("affweyl.decode"),
        "affweyl.decode_s": incl_s("affweyl.decode"),
        "hecke.cache_save_s": incl_s("hecke.cache_save"),
        "hecke.cache_bytes": cnt.get("hecke.cache_bytes", 0),
        "hecke.products_calls": calls(*products),
        "hecke.products_self_s": self_s(*products),
        "central.kottwitz_s": incl_s("central.kottwitz"),
        "central.theta_calls": calls("central.theta"),
        "central.theta_s": incl_s("central.theta"),
        "affweyl.encode_calls": calls("affweyl.encode"),
        "affweyl.encode_s": incl_s("affweyl.encode"),
        "affweyl.adm_s": incl_s("affweyl.adm"),
        "affweyl.adm_size": cnt.get("affweyl.adm_size", 0),
        "multiplicity.compute_s": incl_s("multiplicity.compute"),
        "multiplicity.self_s": self_s("multiplicity.compute"),
        "multiplicity.render_s": incl_s(*[f"multiplicity.{n}" for n in RENDERS]),
        "rootdata.create_s": incl_s("rootdata.create"),
    }
