"""Mutation runner for the `affhecke` checks and tables.

Each mutant of CATALOGUE replaces one piece of library text by another.
The runner copies the src/ directory of a tree into a temporary
directory, applies one mutant there and makes five runs on the copy:

* `check oracles --depth 3 --samples 5`;
* `check golden` on the two smallest golden tables, GSp4 `1,1,0,0` and
  GL3 `2,2,0`;
* `table` on GSp4 `2,1,1,0` and G2 `3,0`, two cases with no golden
  table, whose stdout is compared with that of the unmutated tree.

An InvariantViolation that the library raises fails only the entry it
is raised in, so every entry prints.  A `check` run catches the mutant
with each entry that prints FAIL, or by ending in any other way than
exit 0 or exit 3 with a FAIL entry; a `table` run catches it when its
stdout differs from the unmutated tree's or it exits other than 0.  A
mutant is killed when a run catches it, and survives otherwise.  A
`table` run whose stdout differs while it exits 0 prints a wrong table
as if it were right: that is a finding, even when a check kills the
mutant.  Run from anywhere, on this tree or on another checkout:

    python3 tests/mutants.py [TREE]

It first runs the unmutated tree, whose checks must pass, then prints
one line per mutant and one more per run that caught it, with the
entries that failed, the last stderr line of a run that ended otherwise
or how a table differed, and notes each mutant whose catalogue entry
did not print FAIL and each finding.  It exits 1 when a mutant survives
or is not killed as expected; findings do not change the exit code.
The name does not start with "test_", so pytest does not collect it.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: the runs made on each tree, the `table` runs last
CHECKS = (
    ["check", "oracles", "--depth", "3", "--samples", "5"],
    ["check", "golden", "GSp4", "--mu", "1,1,0,0"],
    ["check", "golden", "GL3", "--mu", "2,2,0"],
)
TABLES = (["table", "GSp4", "--mu", "2,1,1,0"], ["table", "G2", "--mu", "3,0"])
#: what a `table` run that printed another table with exit 0 caught
WRONG = "wrong table, exit 0"
MAIN = "import sys; from affhecke.cli import main; sys.exit(main())"

#: (mutant, file of src/affhecke, old text, new text, the entry expected to
#: FAIL)
CATALOGUE = (
    (
        "inv_kl_poly drops the sign eps_w",
        "hecke.py",
        "{z: c.scale(w.sign()) for z, c in ic.items()}",
        "dict(ic)",
        "q-oracle-vs-ic-basis-GL3-1,1,0",
    ),
    (
        "_solve_down takes the P = 1 shortcut for every P",
        "hecke.py",
        "(neg if p == 1 else neg * p)",
        "(neg if p >= 1 else neg * p)",
        "q-oracle-vs-ic-basis-GL3",
    ),
    (
        "to_ic_basis merges the even part into itself as the odd one",
        "hecke.py",
        "if e & 1 == parity}",
        "if e & 1 == 0}",
        "q-oracle-vs-ic-basis-GL3-1,1,0",
    ),
    (
        "to_ic_basis solves the even part alone",
        "hecke.py",
        "for parity in (0, 1):",
        "for parity in (0,):",
        "ic-basis-round-trip-GL3-2,1,0",
    ),
    (
        "to_ic_basis keeps only the odd part where both halves meet",
        "hecke.py",
        "out[w] = r if old is None else old + r",
        "out[w] = r",
        "ic-basis-round-trip-GL3-2,1,0",
    ),
    (
        "r_poly drops the q of q R_{xs,ys}",
        "hecke.py",
        "r.shift(2) - r + vals[1].shift(2)",
        "r.shift(2) - r + vals[1]",
        "q-oracle-vs-ic-basis-GSp4",
    ),
    (
        "_mu_terms rounds mu(z,v) up by one",
        "hecke.py",
        "c = (p + (1 << (t - 1))) >> t if t else p",
        "c = (p + (1 << t)) >> t if t else p",
        "kl-recursion-vs-bar-fixedness-GL4-2,1,0,0",
    ),
    (
        "_word strips the largest finite descent",
        "affweyl.py",
        "for i in range(1, len(row))",
        "for i in range(len(row) - 1, 0, -1)",
        "finite-word-vs-strip-GL4",
    ),
    (
        "decode skips the reducedness test",
        "affweyl.py",
        "if self._asc[k][i][1]:",
        "if False:",
        "decode-vs-matrix-GL4",
    ),
    (
        "the group law tests a zero translation by its first coordinate",
        "affweyl.py",
        "if any(mu):",
        "if mu[0]:",
        "finite-product-vs-matrix-GL4",
    ),
    (
        "the group law gives a product by a finite factor the left length",
        "affweyl.py",
        "a._len if b._len == 0 else",
        "a._len if b._len == 0 or not any(mu) else",
        "finite-product-vs-matrix-GL4",
    ),
    (
        "compute counts a configuration one length short",
        "multiplicity.py",
        "counts[w][lx - w.length()] += 1",
        "counts[w][lx - w.length() - (lx - w.length() >= 2)] += 1",
        "configurations-vs-intervals-GL3",
    ),
    (
        "render_text doubles the space after the count",
        "multiplicity.py",
        "| {r.count} | {mults}",
        "| {r.count}  | {mults}",
        "golden-table-GL3-2,2,0",
    ),
)


def _last_error(proc):
    return (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]


def runs(tree, mutant=None, tables=None):
    """{run: what caught the mutant} for each run of CHECKS and TABLES on
    tree's src/ with mutant = (file, old, new) applied, and the stdout of
    each `table` run.  A `check` run is caught by the entries that print
    FAIL, then by the last stderr line of a run that ends in any other way
    than exit 0 or exit 3 with a FAIL entry; a `table` run by a stdout
    that differs from tables[run] (given) or an exit other than 0."""
    caught, outputs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            name, old, new = mutant
            target = src / "affhecke" / name
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times, want 1")
            target.write_text(text.replace(old, new), encoding="utf-8")
        for argv in (*CHECKS, *TABLES):
            run = " ".join(argv)
            proc = subprocess.run(
                [sys.executable, "-c", MAIN, *argv],
                capture_output=True, text=True, cwd=tmp,
                env=dict(os.environ, PYTHONPATH=str(src)),
            )
            if argv in TABLES:
                outputs[run] = proc.stdout
                if proc.returncode:
                    caught[run] = [_last_error(proc)]
                else:
                    caught[run] = [WRONG] if tables and proc.stdout != tables[run] else []
                continue
            lines = proc.stdout.splitlines()
            fails = [line.split()[1] for line in lines if line.startswith("FAIL ")]
            if proc.returncode != 0 and not (proc.returncode == 3 and fails):
                fails.append(_last_error(proc))
            caught[run] = fails
    return caught, outputs


def main(argv):
    tree = pathlib.Path(argv[0]).resolve() if argv else ROOT
    caught, tables = runs(tree)
    failed = [f"{run}: {', '.join(names)}" for run, names in caught.items() if names]
    if failed:
        print("the unmutated tree fails:", *failed, sep="\n  ")
        return 1
    survivors = misses = 0
    findings = []
    for mutant, name, old, new, expected in CATALOGUE:
        caught, _ = runs(tree, (name, old, new), tables)
        killers = {run: names for run, names in caught.items() if names}
        survivors += not killers
        print(f"{'killed  ' if killers else 'SURVIVED'} {mutant}")
        for run, names in killers.items():
            print(f"         {run}: {', '.join(names)}")
            if WRONG in names:
                findings.append(f"{mutant}: {run}")
        if not any(expected in names for names in killers.values()):
            misses += 1
            print(f"         expected {expected}")
    print(f"{len(CATALOGUE)} mutants, {survivors} survivors, {misses} expected entries missed")
    print(f"{len(findings)} wrong tables with exit 0:", *findings, sep="\n  ")
    return 1 if survivors or misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
