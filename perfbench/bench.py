"""Workloads, process spawning and exactness checks of the benchmark.

Every iteration is one fresh interpreter started from a temporary
directory of its own, with ``PYTHONPATH`` pointing at the checkout's
``src`` and an explicit ``--cache-dir`` inside that directory, so no
iteration shares state with another or writes into the checkout.  Wall
time runs from spawn to exit; CPU time and peak RSS come from the
``os.wait4`` record of that one child.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")

#: Imports affhecke and builds a datum, its group and its Hecke context.
SETUP_PROBE = (
    "import sys, affhecke; d = affhecke.parse_group(sys.argv[1]); "
    "affhecke.group(d); affhecke.context(d)"
)


@contextlib.contextmanager
def work_dir(root):
    """A fresh directory under ``<root>/.bench_work``, removed on exit, and
    ``.bench_work`` with it when nothing else is left there.  The benchmark
    reads and writes only inside its checkout, so its scratch space is there."""
    base = Path(root) / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


class SetupError(RuntimeError):
    """Untimed set-up of a workload failed; the run cannot be measured."""


class Proc:
    """One finished child process and what it cost."""

    def __init__(self, wall, cpu, rss_mb, code, out, err):
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.code = code
        self.out = out
        self.err = err


class Sample:
    """One measured iteration; ``error`` is None when every check passed.
    ``ref`` is the reference-loop time around it, when run.py took one."""

    def __init__(self, proc, error):
        self.proc = proc
        self.error = error
        self.ref = None


class Bench:
    """Spawns the program of one checkout in hermetic directories."""

    def __init__(self, root, workdir):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONHASHSEED="0")
        self.env.pop("AFFHECKE_CACHE_DIR", None)
        # Bytecode is cached as for an installed package, whatever the caller's setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def fresh_dir(self):
        return Path(tempfile.mkdtemp(dir=self.workdir))

    def spawn(self, argv, cwd):
        """Run ``python argv`` in cwd; stdout and stderr go to files there."""
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            proc.returncode,
            (cwd / "stdout").read_bytes(),
            (cwd / "stderr").read_bytes(),
        )

    def run_setup(self, argv):
        """A set-up command in a fresh directory; SetupError on a nonzero exit."""
        cwd = self.fresh_dir()
        try:
            proc = self.spawn(argv, cwd)
        finally:
            shutil.rmtree(cwd)
        if proc.code != 0:
            raise SetupError(f"{argv} exited {proc.code}: {proc.err.decode()[-500:]}")
        return proc

    def setup_probe(self, group_label):
        """Wall time of a process that imports affhecke and builds its datum."""
        return self.run_setup(["-c", SETUP_PROBE, group_label]).wall

    def iteration(self, workload, spans_file=None):
        """One measured run of the workload; a failed check is recorded, not raised.

        With spans_file the child runs under the span recorder and writes
        its spans there."""
        cwd = self.fresh_dir()
        try:
            workload.before(cwd)
            kind, args = workload.program()
            if spans_file is not None:
                argv = [CHILD, "--spans", str(spans_file), kind, *args]
            elif kind == "cli":
                argv = ["-m", "affhecke.cli", *args]
            else:
                argv = [CHILD, kind, *args]
            proc = self.spawn(argv, cwd)
            if proc.code != 0:
                error = f"exit code {proc.code}: {proc.err.decode()[-300:]}"
            else:
                try:
                    error = workload.check(cwd, proc.out)
                except Exception as exc:  # a malformed output is a failed check
                    error = f"check raised {type(exc).__name__}: {exc}"
            return Sample(proc, error)
        finally:
            shutil.rmtree(cwd)


def parse_laurent(text):
    """{v-exponent: coefficient} of an affhecke LaurentPoly encoding."""
    if text == "0":
        return {}
    terms = {}
    for piece in text.split("+"):
        coeff, sep, exp = piece.partition("*v^")
        if not sep or int(exp) in terms:
            raise ValueError(f"bad polynomial encoding {text!r}")
        terms[int(exp)] = int(coeff)
    return terms


def first_difference(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for n, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            return f"line {n}: got {a!r}, want {b!r}"
    return f"{len(got_lines)} lines, want {len(want_lines)}"


class TableWorkload:
    """``affhecke table GROUP --mu MU``, checked byte for byte against the
    golden table.  Cold: the cache directory starts empty.  Warm: it
    starts as a copy of the one an untimed cold run wrote in set-up; the
    run must load every record of it, solve no KL column, and leave the
    directory unchanged.  The warm run goes through ``child.py cli-warm``,
    which reports the records loaded and the columns solved."""

    def __init__(self, group, mu, warm=False):
        self.group, self.mu, self.warm = group, mu, warm
        stem = f"{group}_{mu.replace(',', '-')}"
        self.golden_path = Path("src") / "affhecke" / "golden" / f"{stem}.txt"
        self.golden = None
        self.pristine = None
        self.cache_files = None
        self.records = None

    def program(self):
        args = ["table", self.group, "--mu", self.mu, "--cache-dir", "klcache", "--jobs", "1"]
        return ("cli-warm" if self.warm else "cli"), args

    def prepare(self, bench):
        self.golden = (bench.root / self.golden_path).read_bytes()
        if not self.warm:
            return
        self.pristine = bench.workdir / "pristine"
        self.pristine.mkdir()
        proc = bench.spawn(["-m", "affhecke.cli", *self.program()[1]], self.pristine)
        if proc.code != 0 or proc.out != self.golden:
            raise SetupError(f"cold run that fills the cache failed: {proc.err.decode()[-500:]}")
        self.cache_files = read_dir(self.pristine / "klcache")
        if not self.cache_files:
            raise SetupError("cold run wrote no cache file")
        # one header line, then one line per record
        self.records = sum(data.count(b"\n") - 1 for data in self.cache_files.values())

    def before(self, cwd):
        if self.warm:
            shutil.copytree(self.pristine / "klcache", cwd / "klcache")

    def check(self, cwd, out):
        if out != self.golden:
            return f"table differs from {self.golden_path}: " + first_difference(
                out.decode(), self.golden.decode()
            )
        if not self.warm:
            return None
        use = json.loads((cwd / "cache-use.json").read_text())
        if use["records_loaded"] != self.records:
            return f"the warm run loaded {use['records_loaded']} cache records, want {self.records}"
        if use["columns_solved"]:
            return f"the warm run solved {use['columns_solved']} KL columns, want 0"
        if read_dir(cwd / "klcache") != self.cache_files:
            return "the warm run changed the cache directory"
        return None


def read_dir(path):
    if not path.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class KlDeepWorkload:
    """P_{n_lambda, n_mu} for every dominant lambda <= mu, by a library call.

    Lusztig's q-analogue identity gives the oracle: P(1) = m_mu(lambda),
    the weight multiplicity that set-up computes by Freudenthal's formula
    in a separate process.  P also has constant term 1 and nonnegative
    coefficients."""

    def __init__(self, group, mu):
        self.group, self.mu = group, mu
        self.expected = None

    def program(self):
        return "kl-deep", [self.group, self.mu]

    def prepare(self, bench):
        rows = json.loads(bench.run_setup([CHILD, "weights", self.group, self.mu]).out)["rows"]
        self.expected = {tuple(r["lambda"]): r["m"] for r in rows}

    def before(self, cwd):
        pass

    def check(self, cwd, out):
        rows = json.loads(out.splitlines()[-1])["rows"]
        got = [tuple(r["lambda"]) for r in rows]
        if sorted(got) != sorted(self.expected):
            return f"lambda set {got} differs from {sorted(self.expected)}"
        for r in rows:
            lam = tuple(r["lambda"])
            p = parse_laurent(r["P"])
            if any(e < 0 or e % 2 for e in p):
                return f"P for lambda={lam} is not a polynomial in q: {r['P']}"
            if p.get(0) != 1:
                return f"P for lambda={lam} has constant term {p.get(0, 0)}, want 1"
            if any(c < 0 for c in p.values()):
                return f"P for lambda={lam} has a negative coefficient: {r['P']}"
            if sum(p.values()) != self.expected[lam]:
                return f"P(1) = {sum(p.values())} for lambda={lam}, want m = {self.expected[lam]}"
        return None


class KottwitzWorkload:
    """``affhecke query kottwitz GROUP --mu MU``: the T-support must be
    Adm(mu) as ``query adm`` prints it in set-up, every coefficient must
    lie in Z[q, q^-1], and every iteration must print the same bytes."""

    def __init__(self, group, mu):
        self.group, self.mu = group, mu
        self.adm = None
        self.first = None

    def program(self):
        return "cli", ["query", "kottwitz", self.group, "--mu", self.mu, "--cache-dir", "klcache"]

    def prepare(self, bench):
        proc = bench.run_setup(
            ["-m", "affhecke.cli", "query", "adm", self.group, "--mu", self.mu, "--cache-dir", "klcache"]
        )
        self.adm = proc.out.decode().split()

    def before(self, cwd):
        pass

    def check(self, cwd, out):
        support = []
        for line in out.decode().splitlines():
            x, coeff = line.split(" ")
            if any(e % 2 for e in parse_laurent(coeff)):
                return f"coefficient of {x} has an odd power of v: {coeff}"
            support.append(x)
        if len(support) != len(set(support)) or set(support) != set(self.adm):
            return f"support of {len(support)} elements differs from Adm ({len(self.adm)})"
        if self.first is None:
            self.first = out
        elif out != self.first:
            return "output differs from the first iteration's"
        return None


#: name -> (factory, group label that the set-up probe builds)
WORKLOADS = {
    "table-gl5": (lambda: TableWorkload("GL5", "1,1,0,0,0"), "GL5"),
    "table-gl5-warm": (lambda: TableWorkload("GL5", "1,1,0,0,0", warm=True), "GL5"),
    "kl-deep": (lambda: KlDeepWorkload("G2", "2,0"), "G2"),
    "trace-gl5": (lambda: KottwitzWorkload("GL5", "2,1,0,0,0"), "GL5"),
}
