"""Command-line front end.

Subcommands
-----------
table   GROUP --mu ...      multiplicity table (text / csv / json)
query   KIND GROUP ...      single objects: adm, kl, invkl, rpoly, theta,
                            z, kottwitz, wakimoto
check   SUITE ...           properties | oracles | golden

The KL cache is opt-in: `table`, `check properties|golden` and `query
kl|invkl` load and save Kazhdan-Lusztig polynomials in `--cache-dir`,
else in $AFFHECKE_CACHE_DIR.  With neither set (or set empty) a run
reads and writes no file.  This module is the only one that touches the
cache; the library computes in memory.

Exit codes: 0 success, 2 usage, parse or I/O error, 3 failed check or
internal invariant violation.  All output is deterministic: the computation is
serial and every ordering is fixed.  `table` and `check` accept
`--jobs N` (N at least 1) for compatibility; it does not change the
computation.
"""

import argparse
import os
import sys
from collections import namedtuple

from . import multiplicity
from .affweyl import DatumMismatch, group
from .central import bernstein_central, kottwitz_function, theta
from .hecke import InvariantViolation, context
from .rootdata import (
    DimensionMismatch,
    NotDominant,
    UnsupportedFamilyRank,
    parse_group,
)
from .wakimoto import wakimoto_function

CACHE_ENV_VAR = "AFFHECKE_CACHE_DIR"
CACHE_HELP = f"KL cache directory, else ${CACHE_ENV_VAR}; with neither, no cache file"
JOBS_HELP = "accepted for compatibility (at least 1); does not change the computation"


# Everything that determines the emitted artifact; echoed into JSON
# outputs.  `--jobs` is excluded: it does not change the computation, and
# the header only records inputs that could change the result.
RunConfig = namedtuple("RunConfig", "command group mu format cache_dir")


def _cache_dir(args):
    """--cache-dir, else $AFFHECKE_CACHE_DIR; None if both are unset or empty."""
    return args.cache_dir or os.environ.get(CACHE_ENV_VAR) or None


def _cached(directory, datum, fn, *fn_args):
    """fn(*fn_args) between loading and saving the KL cache of datum in
    directory; with directory None no file is read or written."""
    if directory is None:
        return fn(*fn_args)
    hctx = context(datum)
    hctx.load_cache(directory)
    result = fn(*fn_args)
    hctx.save_cache(directory)
    return result


def _require_jobs(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")


def _emit(args, text):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_element(datum, text):
    return group(datum).decode(text)


# -- table ---------------------------------------------------------------


def cmd_table(args):
    _require_jobs(args)
    datum = parse_group(args.group)
    mu = datum.parse_coweight(args.mu)
    cache = _cache_dir(args)
    table = _cached(cache, datum, multiplicity.compute, datum, mu)
    cfg = RunConfig(
        command="table",
        group=args.group,
        mu=args.mu,
        format=args.format,
        cache_dir=cache,
    )
    if args.format == "text":
        _emit(args, multiplicity.render_text(table))
    elif args.format == "csv":
        _emit(args, multiplicity.render_csv(table))
    else:
        _emit(args, multiplicity.render_json(table, run_config=cfg._asdict()))
    return 0


# -- query -----------------------------------------------------------------


def _emit_json(args, cfg, payload):
    import json

    doc = {"run_config": cfg._asdict(), **payload}
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_poly(args, cfg, poly):
    if args.format == "json":
        _emit_json(args, cfg, {"value": poly.encode()})
    else:
        _emit(args, poly.encode() + "\n")


def _emit_hecke(args, cfg, h):
    if args.format == "json":
        _emit_json(args, cfg, {"terms": h.encode()})
    else:
        lines = [f"{x.encode()} {c.encode()}" for x, c in
                 sorted(h.terms.items(), key=lambda kv: h.hctx.group.sort_key(kv[0]))]
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))


def cmd_query(args):
    datum = parse_group(args.group)
    hctx = context(datum)
    g = hctx.group
    cache = _cache_dir(args)
    cfg = RunConfig(
        command=f"query {args.kind}",
        group=args.group,
        mu=args.mu or args.lam,
        format=args.format,
        cache_dir=cache,
    )
    kind = args.kind
    if kind == "adm":
        if not args.mu:
            raise DimensionMismatch("query adm requires --mu")
        adm = g.adm(datum.parse_coweight(args.mu))
        if args.format == "json":
            _emit_json(args, cfg, {"count": len(adm), "elements": [x.encode() for x in adm]})
        else:
            _emit(args, "\n".join(x.encode() for x in adm) + "\n")
        return 0
    if kind in ("kl", "invkl", "rpoly"):
        if len(args.elements) != 2:
            raise DimensionMismatch(f"query {kind} requires two element arguments")
        x = _parse_element(datum, args.elements[0])
        w = _parse_element(datum, args.elements[1])
        fn = {"kl": hctx.kl_poly, "invkl": hctx.inv_kl_poly, "rpoly": hctx.r_poly}[kind]
        # R-polynomials never read P, so rpoly leaves the cache alone
        poly = _cached(None if kind == "rpoly" else cache, datum, fn, x, w)
        _emit_poly(args, cfg, poly)
        return 0
    if kind == "theta":
        if not args.lam:
            raise DimensionMismatch("query theta requires --lam")
        _emit_hecke(args, cfg, theta(datum, datum.parse_coweight(args.lam)))
        return 0
    if kind == "z":
        if not args.lam:
            raise DimensionMismatch("query z requires --lam")
        _emit_hecke(
            args, cfg, bernstein_central(datum, datum.parse_coweight(args.lam))
        )
        return 0
    if kind == "kottwitz":
        if not args.mu:
            raise DimensionMismatch("query kottwitz requires --mu")
        _emit_hecke(
            args, cfg, kottwitz_function(datum, datum.parse_coweight(args.mu))
        )
        return 0
    if kind == "wakimoto":
        if len(args.elements) != 2:
            raise DimensionMismatch("query wakimoto requires two element arguments")
        v = _parse_element(datum, args.elements[0])
        w = _parse_element(datum, args.elements[1])
        raw, _normalized = wakimoto_function(v, w)
        _emit_hecke(args, cfg, raw)
        return 0
    raise DimensionMismatch(f"unknown query kind {kind!r}")


# -- check -------------------------------------------------------------------


def cmd_check(args):
    from . import checks

    _require_jobs(args)
    results = []
    if args.suite == "oracles":
        results = checks.oracle_checks(
            seed=args.seed, depth=args.depth, samples=args.samples
        )
    elif args.suite in ("properties", "golden"):
        if not args.group or not args.mu:
            print("check properties/golden requires GROUP and --mu", file=sys.stderr)
            return 2
        datum = parse_group(args.group)
        mu = datum.parse_coweight(args.mu)
        cache = _cache_dir(args)
        if args.suite == "properties":
            results = _cached(cache, datum, checks.property_checks, datum, mu)
        else:
            try:
                results = _cached(cache, datum, checks.golden_check, datum, mu)
            except KeyError as exc:
                print(str(exc), file=sys.stderr)
                return 2
    else:
        print(f"unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        ok = ok and passed
    return 0 if ok else 3


# -- argument parsing -----------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affhecke",
        description=(
            "Exact Iwahori-Hecke algebra computations for extended affine "
            "Weyl groups: admissible sets, Kazhdan-Lusztig data, Bernstein "
            "functions and nearby-cycles multiplicity tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit the multiplicity table for (group, mu)")
    p_table.add_argument("group", help="group label: GL4, GSp6, G2, ...")
    p_table.add_argument("--mu", required=True, help="dominant coweight, e.g. 1,1,0,0")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--out", help="write output to a file instead of stdout")
    p_table.add_argument("--cache-dir", help=CACHE_HELP)
    p_table.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_table.set_defaults(fn=cmd_table)

    p_query = sub.add_parser("query", help="compute a single object")
    p_query.add_argument(
        "kind",
        choices=("adm", "kl", "invkl", "rpoly", "theta", "z", "kottwitz", "wakimoto"),
    )
    p_query.add_argument("group")
    p_query.add_argument("elements", nargs="*", help="element encodings t[...]*w[...]")
    p_query.add_argument("--mu", help="dominant coweight")
    p_query.add_argument("--lam", help="coweight (theta, z)")
    p_query.add_argument("--format", choices=("text", "json"), default="text")
    p_query.add_argument("--out")
    p_query.add_argument("--cache-dir", help=CACHE_HELP + " (kl, invkl)")
    p_query.set_defaults(fn=cmd_query)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=("properties", "oracles", "golden"))
    p_check.add_argument("group", nargs="?", help="group label (properties, golden)")
    p_check.add_argument("--mu")
    p_check.add_argument("--seed", type=int, default=42)
    p_check.add_argument("--depth", type=int, default=5, help="ball radius for oracle sweeps")
    p_check.add_argument("--samples", type=int, default=50, help="random Wakimoto pairs per family")
    p_check.add_argument("--cache-dir", help=CACHE_HELP + " (properties, golden)")
    p_check.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        UnsupportedFamilyRank,
        DimensionMismatch,
        NotDominant,
        DatumMismatch,
        multiplicity.NotInAdm,
        multiplicity.NotMinuscule,
        ValueError,
        OSError,  # an unwritable --out or --cache-dir
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
