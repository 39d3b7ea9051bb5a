"""Command-line front end.

Subcommands
-----------
table   GROUP --mu ...      multiplicity table (text / csv / json)
query   KIND GROUP ...      single objects: adm, kl, invkl, rpoly, theta,
                            z, kottwitz, wakimoto
check   SUITE ...           properties | oracles | golden

The KL cache is opt-in and belongs to `table`: it loads Kazhdan-Lusztig
polynomials from `--cache-dir`, else from $AFFHECKE_CACHE_DIR, before the
table and saves them after it.  With neither set (or set empty) it reads
and writes no file.  `query` and `check` accept the same option and
variable, and JSON output echoes the value, but they read and write no
file.  This module is the only one that touches the cache; the library
computes in memory.

Arguments are read from one table, COMMANDS, as argparse read them:
`--opt value` or `--opt=value`, a long option cut to a unique prefix,
options before, between or after the positionals, the last of a
repeated option wins, a negative number such as `--jobs -3` or an
empty string is a value, and `--` ends the options.  Two readings differ
from argparse's: a word of comma-separated integers, a coweight such as
`--mu -1,-1,-2`, is a value too where argparse refused it, and the
positionals are read as argparse's parse_intermixed_args read them,
where parse_args refused: an optional or repeated positional also takes
the words after an option, as in `check golden --mu 2,2,0 GL3`, and a
trailing `--` that no positional takes is dropped.  `-h`/`--help`
prints the usage to stdout and exits 0.  The module imports no argparse:
every run is a short process, and argparse with gettext, locale and
shutil cost about 8 ms of it.

Exit codes: 0 success, 2 usage, parse or I/O error, 3 failed check or
internal invariant violation.  All output is deterministic: the computation is
serial and every ordering is fixed.  `table` and `check` accept
`--jobs N` (N at least 1) for compatibility; it does not change the
computation.

Only the process entry `run`, which the installed `affhecke` command and
`python -m affhecke.cli` call, freezes the heap once `main` has returned;
`main` leaves the collector as it found it for in-process callers.
"""

import gc
import os
import sys
from collections import namedtuple

from . import multiplicity
from .affweyl import group
from .central import bernstein_central, kottwitz_function, theta
from .hecke import InvariantViolation, KLCache, context
from .rootdata import DimensionMismatch, parse_group

CACHE_ENV_VAR = "AFFHECKE_CACHE_DIR"
CACHE_HELP = f"KL cache directory, else ${CACHE_ENV_VAR}; with neither, no cache file"
NO_CACHE_HELP = "accepted for compatibility; reads and writes no file"
JOBS_HELP = "accepted for compatibility (at least 1); does not change the computation"


# Everything that determines the emitted artifact; echoed into JSON
# outputs.  `--jobs` is excluded: it does not change the computation, and
# the header only records inputs that could change the result.
RunConfig = namedtuple("RunConfig", "command group mu format cache_dir")


def _cache_dir(args):
    """--cache-dir, else $AFFHECKE_CACHE_DIR; None if both are unset or empty."""
    return args.cache_dir or os.environ.get(CACHE_ENV_VAR) or None


def _require_positive(args, *names):
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"--{name} must be at least 1, got {getattr(args, name)}")


def _emit(args, text):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- table ---------------------------------------------------------------


def cmd_table(args):
    _require_positive(args, "jobs")
    datum = parse_group(args.group)
    mu = datum.parse_coweight(args.mu)
    cache = _cache_dir(args)
    if cache is None:
        table = multiplicity.compute(datum, mu)
    else:
        # the file is rewritten unless it held every pair the context holds now
        hctx = context(datum)
        kl_cache = KLCache(cache)
        loaded = kl_cache.load_into(hctx)
        table = multiplicity.compute(datum, mu)
        if sum(map(len, hctx._p_cols.values())) != loaded:
            kl_cache.save_from(hctx)
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


def _emit_elements(args, cfg, elements):
    codes = [x.encode() for x in elements]
    if args.format == "json":
        _emit_json(args, cfg, {"count": len(codes), "elements": codes})
    else:
        _emit(args, "\n".join(codes) + "\n")


def _emit_poly(args, cfg, poly):
    if args.format == "json":
        _emit_json(args, cfg, {"value": poly.encode()})
    else:
        _emit(args, poly.encode() + "\n")


def _emit_hecke(args, cfg, h):
    terms = h.encode()
    if args.format == "json":
        _emit_json(args, cfg, {"terms": terms})
    else:
        _emit(args, "".join(f"{x} {c}\n" for x, c in terms.items()))


def _wakimoto(datum, v, w):
    """The Wakimoto function of (v, w); wakimoto is imported on this query
    alone, as checks is on `check`."""
    from .wakimoto import wakimoto_function

    return wakimoto_function(v, w)[0]


# Per kind: its input ("mu" and "lam" name an option, "elements" the two
# element arguments), the function of (datum, *inputs) whose value it
# prints and the emitter that prints it.  Each function looks its library
# name up when it runs, so that a profiler that rebinds the name sees the
# call.
QUERIES = {
    "adm": ("mu", lambda datum, mu: group(datum).adm(mu), _emit_elements),
    "kl": ("elements", lambda datum, x, w: context(datum).kl_poly(x, w), _emit_poly),
    "invkl": ("elements", lambda datum, x, w: context(datum).inv_kl_poly(x, w), _emit_poly),
    "rpoly": ("elements", lambda datum, x, w: context(datum).r_poly(x, w), _emit_poly),
    "theta": ("lam", lambda datum, lam: theta(datum, lam), _emit_hecke),
    "z": ("lam", lambda datum, lam: bernstein_central(datum, lam), _emit_hecke),
    "kottwitz": ("mu", lambda datum, mu: kottwitz_function(datum, mu), _emit_hecke),
    "wakimoto": ("elements", _wakimoto, _emit_hecke),
}


def cmd_query(args):
    source, fn, emit = QUERIES[args.kind]
    for name, value in (("mu", args.mu), ("lam", args.lam), ("elements", args.elements or None)):
        if name != source and value is not None:
            unread = "element arguments" if name == "elements" else f"--{name}"
            raise DimensionMismatch(f"query {args.kind} does not read {unread}")
    datum = parse_group(args.group)
    cfg = RunConfig(
        command=f"query {args.kind}",
        group=args.group,
        mu=args.mu or args.lam,
        format=args.format,
        cache_dir=_cache_dir(args),
    )
    if source == "elements":
        if len(args.elements) != 2:
            raise DimensionMismatch(f"query {args.kind} requires two element arguments")
        inputs = [group(datum).decode(text) for text in args.elements]
    elif getattr(args, source):
        inputs = [datum.parse_coweight(getattr(args, source))]
    else:
        raise DimensionMismatch(f"query {args.kind} requires --{source}")
    emit(args, cfg, fn(datum, *inputs))
    return 0


# -- check -------------------------------------------------------------------


def cmd_check(args):
    from . import checks

    _require_positive(args, "jobs", "depth", "samples")
    if args.suite == "oracles":
        results = checks.oracle_checks(args.seed, args.depth, args.samples)
    else:
        if not args.group or not args.mu:
            raise DimensionMismatch(f"check {args.suite} requires GROUP and --mu")
        datum = parse_group(args.group)
        mu = datum.parse_coweight(args.mu)
        if args.suite == "properties":
            results = checks.property_checks(datum, mu)
        else:
            results = checks.golden_check(datum, mu)
    ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status} {name}{suffix}", flush=True)
        ok = ok and passed
    return 0 if ok else 3




# -- argument parsing -----------------------------------------------------------
#
# COMMANDS is the whole grammar of the command line.  Per command: the
# handler, a help line, the positionals as (name, nargs, choices, help)
# with nargs 1, "?" or "*" (the last two after every nargs 1), and the
# long options as _opt makes them.  parse_args reads argv against it and
# _help renders it.

DESCRIPTION = (
    "Exact Iwahori-Hecke algebra computations for extended affine Weyl "
    "groups: admissible sets, Kazhdan-Lusztig data, Bernstein functions "
    "and nearby-cycles multiplicity tables."
)
HELP_FLAGS = ("-h", "--help")


def _opt(flag, help="", type=str, default=None, choices=None, required=False):
    return flag, type, default, choices, required, help


COMMANDS = {
    "table": (
        cmd_table,
        "emit the multiplicity table for (group, mu)",
        [("group", 1, None, "group label: GL4, GSp6, G2, ...")],
        [
            _opt("--mu", "dominant coweight, e.g. 1,1,0,0", required=True),
            _opt("--format", "output format", choices=("text", "csv", "json"), default="text"),
            _opt("--out", "write output to a file instead of stdout"),
            _opt("--cache-dir", CACHE_HELP),
            _opt("--jobs", JOBS_HELP, int, 1),
        ],
    ),
    "query": (
        cmd_query,
        "compute a single object",
        [
            ("kind", 1, tuple(QUERIES), "what to compute"),
            ("group", 1, None, "group label"),
            ("elements", "*", None, "element encodings t[...]*w[...]"),
        ],
        [
            _opt("--mu", "dominant coweight"),
            _opt("--lam", "coweight (theta, z)"),
            _opt("--format", "output format", choices=("text", "json"), default="text"),
            _opt("--out", "write output to a file instead of stdout"),
            _opt("--cache-dir", NO_CACHE_HELP),
        ],
    ),
    "check": (
        cmd_check,
        "run a verification suite",
        [
            ("suite", 1, ("properties", "oracles", "golden"), "which suite"),
            ("group", "?", None, "group label (properties, golden)"),
        ],
        [
            _opt("--mu", "dominant coweight (properties, golden)"),
            _opt("--seed", "seed of the random samples", int, 42),
            _opt("--depth", "ball radius for oracle sweeps", int, 5),
            _opt("--samples", "random Wakimoto pairs per family", int, 50),
            _opt("--cache-dir", NO_CACHE_HELP),
            _opt("--jobs", JOBS_HELP, int, 1),
        ],
    ),
}


class Args:
    """A parsed command line: `command`, its handler `fn` and one attribute
    per argument (`--cache-dir` is `cache_dir`)."""

    def __init__(self, values):
        self.__dict__.update(values)


class ParseExit(Exception):
    """parse_args ends the run: code 0 with the help for stdout, or code 2
    with the usage and an error message for stderr."""

    def __init__(self, code, text):
        super().__init__(code, text)
        self.code = code
        self.text = text


def _metavar(flag, choices):
    return "{" + ",".join(choices) + "}" if choices else flag[2:].replace("-", "_").upper()


def _usage(command):
    if command is None:
        return "usage: affhecke [-h] {" + ",".join(COMMANDS) + "} ..."
    _fn, _about, positionals, options = COMMANDS[command]
    words = ["[-h]"]
    for flag, _type, _default, choices, required, _help in options:
        word = f"{flag} {_metavar(flag, choices)}"
        words.append(word if required else f"[{word}]")
    shapes = {1: "{}", "?": "[{}]", "*": "[{} ...]"}
    words += [shapes[nargs].format(name) for name, nargs, _choices, _help in positionals]
    return f"usage: affhecke {command} " + " ".join(words)


def _help(command):
    """The help of the program (command None) or of one command."""
    if command is None:
        about = DESCRIPTION
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _fn, about, positionals, options = COMMANDS[command]
        rows = [(name, help + (f": {', '.join(choices)}" if choices else ""))
                for name, _nargs, choices, help in positionals]
        rows.append(("-h, --help", "show this help and exit"))
        for flag, _type, default, choices, required, help in options:
            note = " (required)" if required else "" if default is None else f" (default: {default})"
            rows.append((f"{flag} {_metavar(flag, choices)}", help + note))
    lines = [_usage(command), "", about, ""] + [f"  {a:<25} {b}".rstrip() for a, b in rows]
    return "\n".join(lines)


def _error(command, message):
    prog = "affhecke" if command is None else f"affhecke {command}"
    return ParseExit(2, f"{_usage(command)}\n{prog}: error: {message}")


def _choose(command, label, value, choices):
    if choices and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _error(command, f"argument {label}: invalid choice: {value!r} (choose from {listed})")
    return value


def _help_flag(command, flag, value):
    """-h or --help, with the value attached to it or None: argparse took
    "-hh" for "-h -h" and refused any other attached value."""
    if value is None or flag == "-h" and value and not value.strip("h"):
        raise ParseExit(0, _help(command))
    raise _error(command, f"argument -h/--help: ignored explicit argument {value!r}")


def _classify(arg, flags, command):
    """How argparse read an argument before `--`: None for a positional,
    else (flag, the value given with it or None), flag None for an unknown
    option.  A long option may be cut to a unique prefix and take its value
    after "="; a negative number, an argument with a space or, unlike in
    argparse, a word of comma-separated integers such as "-1,0,2" is a
    positional, so a negative coweight may follow --mu or --lam."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return name, value
    if arg[1] == "-":
        hits = [f for f in flags if f.startswith(name)]
        value = value if eq else None
    else:
        hits = [f for f in flags if f == arg[:2]]
        value = arg[2:]
    if len(hits) > 1:
        raise _error(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return hits[0], value
    head, _dot, tail = arg[1:].rpartition(".")
    if (" " in arg or tail.isdecimal() and (not head or head.isdecimal())
            or all(p.removeprefix("-").isdecimal() for p in arg.split(","))):
        return None
    return None, None


def parse_args(argv):
    """argv read against COMMANDS as argparse read it: `--opt value` or
    `--opt=value`, unique prefixes of options, options before, between or
    after positionals, the last repeat wins and `--` ends the options.  A
    run of positionals fills the positionals in order, each taking what it
    can; a "?" positional that took no word and a "*" positional take
    words from later runs too, and a `--` that no positional took is
    dropped, as argparse's parse_intermixed_args read them.  Returns
    Args; raises ParseExit for a help flag or an error."""
    extras = []  # unknown options: an error once no help flag ends the run
    for i, arg in enumerate(argv):
        opt = None if arg == "--" else _classify(arg, HELP_FLAGS, None)
        if opt is None:
            break
        if opt[0] is None:
            extras.append(arg)
        else:
            _help_flag(None, *opt)
    else:
        raise _error(None, "the following arguments are required: command")
    command = _choose(None, "command", argv[i], COMMANDS)
    fn, _about, positionals, options = COMMANDS[command]
    flags = {spec[0]: spec for spec in options}
    flags.update(dict.fromkeys(HELP_FLAGS))
    rest = argv[i + 1:]
    mark = rest.index("--") if "--" in rest else len(rest)  # every later word is positional
    kinds = [_classify(a, flags, command) if k < mark else None for k, a in enumerate(rest)]
    values = {"command": command, "fn": fn}
    values.update((spec[0], None) for spec in positionals)
    values.update((flag[2:].replace("-", "_"), default) for flag, _type, default, *_ in options)
    seen, filled, k = set(), 0, 0
    while True:
        j = next((j for j in range(k, len(rest)) if kinds[j]), len(rest))
        if k < j or j == len(rest):  # a run of positionals, or the end
            avail = j - k - (k <= mark < j)
            todo = positionals[filled:]
            if avail < sum(nargs == 1 for _name, nargs, *_ in todo):
                todo = todo[:avail]
            for name, nargs, choices, _help in todo:
                count = avail if nargs == "*" else min(avail, 1)
                avail -= count
                got = []
                while k < j and (k == mark or count):
                    count -= k != mark
                    got.append(rest[k])
                    k += 1
                if "--" in got:
                    got.remove("--")
                if nargs == 1 and not got:
                    raise _error(command, f"argument {name}: expected one argument")
                # a "*" positional stays open, and so does a "?" that took no word
                filled += nargs == 1 or nargs == "?" and bool(got)
                values[name] = (values[name] or []) + got if nargs == "*" else _choose(
                    command, name, got[0] if got else None, choices)
            extras += rest[k + (k == mark):j]  # a "--" no positional took is dropped
        if j == len(rest):
            break
        (flag, value), k = kinds[j], j + 1
        if flag is None:
            extras.append(rest[j])
            continue
        if flag in HELP_FLAGS:
            _help_flag(command, flag, value)
        _flag, kind, _default, choices, _required, _help = flags[flag]
        if value is None:
            if k == len(rest) or k == mark or kinds[k]:
                raise _error(command, f"argument {flag}: expected one argument")
            value, k = rest[k], k + 1
        try:
            value = kind(value)
        except ValueError:
            msg = f"argument {flag}: invalid {kind.__name__} value: {value!r}"
            raise _error(command, msg) from None
        values[flag[2:].replace("-", "_")] = _choose(command, flag, value, choices)
        seen.add(flag)
    missing = [name for name, nargs, *_ in positionals[filled:] if nargs == 1]
    missing += [flag for flag, _t, _d, _c, required, _h in options if required and flag not in seen]
    if missing:
        raise _error(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        raise _error(None, "unrecognized arguments: " + " ".join(extras))
    return Args(values)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ParseExit as stop:
        print(stop.text, file=sys.stderr if stop.code else sys.stdout)
        return stop.code
    try:
        return args.fn(args)
    except (ValueError, multiplicity.NotInAdm, OSError) as exc:
        # every input error subclasses ValueError; OSError is an unwritable
        # --out or --cache-dir
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def run():
    """Run `main` on sys.argv and exit the process with its code.  Every
    object is frozen first, so the collection the interpreter makes at
    exit has nothing to traverse; stdio flush, module teardown and atexit
    run as usual."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
