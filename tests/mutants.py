"""Mutation runner for `affhecke check oracles`.

Each mutant of CATALOGUE replaces one piece of library text by another.
The runner copies the src/ directory of a tree into a temporary
directory, applies one mutant there, runs
`check oracles --depth 3 --samples 5` on the copy and reads which entries
print FAIL.  A mutant is killed when an entry fails or the run stops with
an error; it survives when every entry passes.  Run from anywhere, on
this tree or on another checkout:

    python3 tests/mutants.py [TREE]

It first runs the unmutated tree, which must pass, then prints one line
per mutant with the entries that killed it, or the error line of a run
that stopped, and notes each mutant that its catalogue entry does not
name: an entry that printed FAIL, or the start of the error line.  It
exits 1 when a mutant survives or is not killed as expected.  The name
does not start with "test_", so pytest does not collect it.
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
#: FAIL or the start of the error line of a run that stops)
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
        "invariant violation: KL recursion gave P",
    ),
)


def failures(tree, mutant=None):
    """(the entries that print FAIL, then the last error line of a run that
    stops; that line or None) on tree's src/ with mutant = (file, old, new)
    applied."""
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
        return fails, None
    stop = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return fails + [stop], stop


def main(argv):
    tree = pathlib.Path(argv[0]).resolve() if argv else ROOT
    killers, _stop = failures(tree)
    if killers:
        print(f"the unmutated tree fails: {', '.join(killers)}")
        return 1
    survivors = misses = 0
    for mutant, name, old, new, expected in CATALOGUE:
        killers, stop = failures(tree, (name, old, new))
        survivors += not killers
        print(f"{'killed  ' if killers else 'SURVIVED'} {mutant}: {', '.join(killers)}")
        if expected not in killers and not (stop or "").startswith(expected):
            misses += 1
            print(f"         expected {expected}")
    print(f"{len(CATALOGUE)} mutants, {survivors} survivors, {misses} expected entries missed")
    return 1 if survivors or misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
