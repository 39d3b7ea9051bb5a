"""Mutation runner for `affhecke check oracles`.

Each mutant of CATALOGUE replaces one piece of library text by another.
The runner copies the src/ directory of a tree into a temporary
directory, applies one mutant there, runs
`check oracles --depth 3 --samples 5` on the copy and reads which entries
print FAIL.  An InvariantViolation that the library raises fails only
the entry it is raised in, so every entry prints.  A mutant is killed
when an entry fails, or when the run ends in any other way than exit 0
or exit 3 with a FAIL entry; it survives when every entry passes.  Run
from anywhere, on this tree or on another checkout:

    python3 tests/mutants.py [TREE]

It first runs the unmutated tree, which must pass, then prints one line
per mutant with the entries that killed it, and the last stderr line of
a run that ended otherwise, and notes each mutant whose catalogue entry
did not print FAIL.  It exits 1 when a mutant survives or is not killed
as expected.  The name does not start with "test_", so pytest does not
collect it.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
ARGV = ["check", "oracles", "--depth", "3", "--samples", "5"]
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
)


def failures(tree, mutant=None):
    """The entries that print FAIL on tree's src/ with mutant = (file, old,
    new) applied, then the last stderr line of a run that ends in any other
    way than exit 0 or exit 3 with a FAIL entry."""
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
        proc = subprocess.run(
            [sys.executable, "-c", MAIN, *ARGV],
            capture_output=True, text=True, cwd=tmp,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
    fails = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    if proc.returncode == 0 or (proc.returncode == 3 and fails):
        return fails
    return fails + [(proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]]


def main(argv):
    tree = pathlib.Path(argv[0]).resolve() if argv else ROOT
    killers = failures(tree)
    if killers:
        print(f"the unmutated tree fails: {', '.join(killers)}")
        return 1
    survivors = misses = 0
    for mutant, name, old, new, expected in CATALOGUE:
        killers = failures(tree, (name, old, new))
        survivors += not killers
        print(f"{'killed  ' if killers else 'SURVIVED'} {mutant}: {', '.join(killers)}")
        if expected not in killers:
            misses += 1
            print(f"         expected {expected}")
    print(f"{len(CATALOGUE)} mutants, {survivors} survivors, {misses} expected entries missed")
    return 1 if survivors or misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
