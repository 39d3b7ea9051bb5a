"""Frontier trajectory: wall time, peak memory and stdout of the CLI cases.

    python3 tests/frontier.py [TREE ...]

Runs every case of CASES, the reference cases of the ROADMAP's CLI
table, on each tree (a checkout; this one when none is given).  Each run
is a fresh `python3 -S` child of a minimal parent, LAUNCH, which forks
it, waits for it with os.wait4 and reports its wall time, its own
ru_maxrss and its exit code; the child's ru_maxrss is at least the
parent's RSS at the fork, so the parent imports nothing of the library.
The first 12 hex digits of the SHA-256 of stdout must be the case's
digest, and a run that exits other than 0 or prints another digest is a
failure.

Given two trees, the runs of a case come in pairs, and the tree that
runs first alternates from pair to pair; the report gives each tree's
median and spread (largest minus smallest) per case and the pairs each
tree won.  A case whose reference wall time is over SLOW seconds runs
one pair, every other case PAIRS pairs, so that two trees take about
two minutes on a 2-vCPU machine.  For the first tree only, the script
also splits the five STAGE_CASES in process, cold, into the stages of
`multiplicity.compute` (stage_split).

It prints a table and writes OUT at the root of this checkout, with the
machine, the Python version and whether each tree's modules were
compiled (stale or missing bytecode is compiled again on every run when
PYTHONDONTWRITEBYTECODE is set, so compile both trees before comparing
them).  It exits 1 when a run fails.  The name does not start with
"test_", so pytest does not collect it; it gates nothing.
"""

import hashlib
import importlib.util
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: the trajectory point this checkout writes, named after its change
OUT = "BENCH_38.json"
MAIN = "from affhecke.cli import run; run()"
SPLIT = "import sys; sys.path.insert(0, sys.argv[1]); import frontier; frontier.stage_split()"
#: the minimal parent: fork a `python3 -S` child with stdout to the file
#: argv[1] and argv[2:] as its arguments, then print its wall time, own
#: ru_maxrss (KiB) and exit code
LAUNCH = """
import os, sys, time
out = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(out, 1)
    os.execv(sys.executable, [sys.executable, "-S", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""
#: (CLI arguments, |Adm|, reference wall time in s, stdout digest), as the
#: ROADMAP's CLI table gives them
CASES = (
    ("table GL6 --mu 1,1,0,0,0,0", 473, 0.07, "dae205f46dba"),
    ("table GL6 --mu 2,1,0,0,0,0", 3175, 0.93, "dc1c14b7c134"),
    ("table GL6 --mu 0,0,0,0,-1,-2", 3175, 0.89, "dc1c14b7c134"),
    ("table GL8 --mu 1,1,0,0,0,0,0,0", 5281, 1.47, "d50c8dcdb4a3"),
    ("table GL6 --mu 2,2,0,0,0,0", 8805, 5.05, "adaa658e36f6"),
    ("table GL7 --mu 2,1,0,0,0,0,0", 13749, 11.15, "4fba83de56ec"),
    ("table GL9 --mu 1,1,0,0,0,0,0,0,0", 16867, 10.01, "9dbf20f1d5f4"),
    ("query adm GL9 --mu 1,1,0,0,0,0,0,0,0", 16867, 0.68, "1c9153207181"),
    ("check oracles", None, 3.99, "c4b80c1a63d1"),
    ("check properties GL8 --mu 1,1,0,0,0,0,0,0", 5281, 8.74, "ae251763f8f1"),
)
#: (group, mu) of the `table` cases of the ROADMAP's stage table
STAGE_CASES = (
    ("GL6", "2,1,0,0,0,0"),
    ("GL8", "1,1,0,0,0,0,0,0"),
    ("GL6", "2,2,0,0,0,0"),
    ("GL7", "2,1,0,0,0,0,0"),
    ("GL9", "1,1,0,0,0,0,0,0,0"),
)
STAGES = ("adm", "kottwitz", "kl_columns", "solve", "configs", "render")
SLOW = 5.0
PAIRS = 3


def stage_split():
    """Print, as one JSON line, the stages of `table GROUP --mu MU` (the
    last two arguments) in this process: Adm (with the datum and group),
    the Kottwitz function, every KL column of Adm in sort_key order, the
    solve to_ic_basis, the configuration loop of multiplicity.compute and
    render_text; then the P pairs and distinct P held and the digest of
    the rendered table."""
    import time

    from affhecke import multiplicity
    from affhecke.central import kottwitz_function
    from affhecke.hecke import context
    from affhecke.laurent import LaurentPoly
    from affhecke.rootdata import parse_group

    label, text = sys.argv[-2:]
    marks = [time.perf_counter()]
    datum = parse_group(label)
    mu = datum.parse_coweight(text)
    hctx = context(datum)
    g = hctx.group
    adm = g.adm(mu)
    marks.append(time.perf_counter())
    f = kottwitz_function(datum, mu)
    marks.append(time.perf_counter())
    for x in adm:
        hctx._kl_column(x)
    marks.append(time.perf_counter())
    coeffs = hctx.to_ic_basis(f)
    marks.append(time.perf_counter())
    ell_mu = g.translation(mu).length()
    counts = {w: [0] * (ell_mu - w.length() + 1) for w in adm}
    for x in adm:
        lx = x.length()
        for w in hctx._kl_column(x):
            counts[w][lx - w.length()] += 1
    configs = {w: tuple(c[1:]) for w, c in counts.items()}
    marks.append(time.perf_counter())
    m_polys = {w: coeffs.get(w, LaurentPoly.zero()) for w in adm}
    table = multiplicity.MultiplicityTable(datum, mu, adm, ell_mu, m_polys, configs, f)
    out = multiplicity.render_text(table).encode()
    marks.append(time.perf_counter())
    record = {f"{name}_s": round(b - a, 4) for name, a, b in zip(STAGES, marks, marks[1:])}
    record["p_pairs"] = sum(map(len, hctx._p_cols.values()))
    record["distinct_p"] = len(hctx._p_values)
    record["digest"] = hashlib.sha256(out).hexdigest()[:12]
    print(json.dumps(record))


def launch(tree, args):
    """(wall s, own max RSS in KiB, exit code, stdout, last stderr line) of
    one `python3 -S` child with args, run by LAUNCH on tree's src/."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "stdout"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCH, str(out), *args],
            capture_output=True, text=True, cwd=tmp,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        )
        wall, rss, code = proc.stdout.split()
        stdout = out.read_bytes()
    err = (proc.stderr.strip().splitlines() or [""])[-1]
    return float(wall), int(rss), int(code), stdout, err


def compiled(tree):
    """Whether every module of tree's package has bytecode at least as new
    as its source, for this interpreter."""
    sources = (tree / "src" / "affhecke").glob("*.py")
    return all(
        (pyc := pathlib.Path(importlib.util.cache_from_source(str(p)))).exists()
        and pyc.stat().st_mtime >= p.stat().st_mtime
        for p in sources
    )


def source_digest(tree):
    """The first 12 hex digits of the SHA-256 of tree's package sources."""
    h = hashlib.sha256()
    for p in sorted((tree / "src" / "affhecke").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:12]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    except OSError:
        models = []
    return models[0] if models else platform.processor() or None


def time_case(case, trees, failures):
    """The record of one case of CASES on the named trees {name: tree}."""
    text, adm, ref_wall, want = case
    runs = {name: [] for name in trees}
    for pair in range(1 if ref_wall > SLOW else PAIRS):
        order = list(trees.items())
        for name, tree in order[::-1] if pair % 2 else order:
            wall, rss, code, stdout, err = launch(tree, ["-c", MAIN, *text.split()])
            digest = hashlib.sha256(stdout).hexdigest()[:12]
            runs[name].append({"wall_s": round(wall, 4), "max_rss_mib": round(rss / 1024, 1),
                               "exit": code, "digest": digest})
            if code != 0 or digest != want:
                failures.append(f"{name}: {text}: exit {code}, digest {digest}, want {want} {err}")
    walls = {name: [r["wall_s"] for r in rs] for name, rs in runs.items()}
    record = {
        "case": text, "adm": adm, "digest": want, "runs": runs,
        "median_s": {name: statistics.median(w) for name, w in walls.items()},
        "spread_s": {name: round(max(w) - min(w), 4) for name, w in walls.items()},
    }
    if len(trees) == 2:
        (a, wa), (b, wb) = walls.items()
        record["pairs_won"] = {a: sum(map(float.__lt__, wa, wb)), b: sum(map(float.__lt__, wb, wa))}
    return record


def split_case(label, mu, tree, failures):
    """The stage_split record of `table label --mu mu` on tree, with the
    child's own peak RSS."""
    text = f"table {label} --mu {mu}"
    _wall, rss, code, stdout, err = launch(tree, ["-c", SPLIT, str(ROOT / "tests"), label, mu])
    record = {"case": text, **(json.loads(stdout) if code == 0 else {"exit": code, "error": err})}
    record["max_rss_mib"] = round(rss / 1024, 1)
    want = next(digest for case, _adm, _wall, digest in CASES if case == text)
    if record.get("digest") != want:
        failures.append(f"{tree.name}: stage split of {text}: {record}")
    return record


def main(argv):
    paths = [pathlib.Path(a).resolve() for a in argv] or [ROOT]
    names = [t.name for t in paths]
    if len(set(names)) != len(names):
        names = [f"{i}:{n}" for i, n in enumerate(names)]
    trees = dict(zip(names, paths))
    failures, cases, stages = [], [], []
    for case in CASES:
        record = time_case(case, trees, failures)
        cases.append(record)
        medians = (f"{n} {m:7.3f} s" for n, m in record["median_s"].items())
        print(f"{case[0]:<45}", *medians, record.get("pairs_won", ""), flush=True)
    for label, mu in STAGE_CASES:
        record = split_case(label, mu, paths[0], failures)
        stages.append(record)
        split = (f"{s} {record.get(f'{s}_s', '-')}" for s in STAGES)
        print(f"{record['case']:<45}", *split, flush=True)
    doc = {
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(), "platform": platform.platform()},
        "python": platform.python_version(),
        "trees": [{"name": n, "source_sha256": source_digest(t), "compiled": compiled(t)}
                  for n, t in trees.items()],
        "pairs": {"slow_s": SLOW, "pairs": PAIRS},
        "cases": cases,
        "stage_split": {"tree": names[0], "cases": stages},
        "failures": failures,
    }
    (ROOT / OUT).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(failures)} failures; wrote {OUT}", *failures, sep="\n  ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
