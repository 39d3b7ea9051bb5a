"""Run one workload of the affhecke benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every iteration is a fresh interpreter
(bench.py); iterations start until S seconds have passed, at least one.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed,
with ``--trace 1`` the per-layer ones: untraced and traced iterations
(child.py --spans) in turn, for ``trace.overhead_ratio``.
``wall_ref`` and ``cpu_ref`` give each iteration's time in units of a
fixed pure-Python reference loop timed just before and after it, so a
phase in which the shared machine runs everything slower moves both
alike and cancels; the unscaled times are printed beside them.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its sample count, the error rate and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench
import spans

ROOT = Path(__file__).resolve().parent.parent
#: set-up probes before the workload's set-up and after it; one more
#: follows every iteration, so the probes spread over the whole run
PROBES_BEFORE_LOOP = 3
#: steps of the reference loop, about 0.07 s on a 2.1 GHz Xeon; its
#: dictionary stays under 1 MiB, since a child's ru_maxrss includes this
#: process's peak RSS
REFERENCE_STEPS = 200_000
#: what loading a missing, truncated or garbled spans file raises
SPAN_ERRORS = (OSError, EOFError, ValueError)


def tail_percentile(values):
    """(p, value) for the highest of p99, p95, p90, p75 that has at least
    ten samples beyond it, or None."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def source_digest():
    # Imported only here, after the last iteration: a child's ru_maxrss
    # includes this process's peak RSS when it spawned the child, and
    # hashlib (OpenSSL) would raise that by 3 MiB.
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reference_loop():
    """Seconds that a fixed pure-Python loop takes: the machine's speed now."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(REFERENCE_STEPS):
        key = ((i * 7919) % 1024, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def measure(runner, workload, seconds, trace, after_each=lambda: None):
    """Iterations until `seconds` have passed, calling after_each after
    every untraced one, whose ``ref`` is set to the mean reference-loop
    time just before and after it.  With `trace`, each untraced iteration
    is followed by a traced one, so both see the same phases of the
    machine.  Returns (all samples, layer metric dicts of the traced
    samples, untraced samples, traced samples)."""
    samples, layers, untraced, traced = [], [], [], []
    ref = reference_loop()
    start = time.perf_counter()
    while True:
        sample = runner.iteration(workload)
        after = reference_loop()
        sample.ref, ref = (ref + after) / 2, after
        samples.append(sample)
        untraced.append(sample)
        if trace:
            path = runner.workdir / f"spans-{len(layers)}.bin"
            sample = runner.iteration(workload, spans_file=path)
            try:
                layers.append(spans.layer_metrics(spans.load(path)))
                path.unlink()
            except SPAN_ERRORS as exc:
                sample.error = sample.error or f"spans file unreadable: {type(exc).__name__}: {exc}"
            samples.append(sample)
            traced.append(sample)
        after_each()
        if time.perf_counter() - start >= seconds:
            return samples, layers, untraced, traced


def summarize(name, unit, values):
    """The median (the lower one for counts); prints it with its sample count."""
    if all(isinstance(v, int) for v in values):
        value = statistics.median_low(values)
        line = f"{name}: {value} {unit} (median of {len(values)})"
    else:
        value = statistics.median(values)
        line = f"{name}: {value:.6g} {unit} (median of {len(values)})"
    tail = tail_percentile(values)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    print(line)
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "affhecke" / "__init__.py").is_file():
        print(f"no affhecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # The reference loop and the iterations (which inherit this) run on
        # one CPU, so that both see that CPU's slow phases; the benchmark
        # waits while an iteration runs, so they never compete for it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    factory, probe_group = bench.WORKLOADS[args.workload]
    workload = factory()
    setup = []

    def probes(n=1):
        if not args.trace:
            setup.extend(runner.setup_probe(probe_group) for _ in range(n))

    try:
        with bench.work_dir(ROOT) as workdir:
            runner = bench.Bench(ROOT, workdir)
            runner.setup_probe(probe_group)  # untimed: compiles bytecode once
            probes(PROBES_BEFORE_LOOP)
            workload.prepare(runner)
            probes(PROBES_BEFORE_LOOP)
            samples, layers, untraced, traced = measure(
                runner, workload, args.seconds, bool(args.trace), probes
            )
    except bench.SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    failed = [s for s in samples if s.error]
    for s in failed:
        print(f"failed iteration: {s.error}")
    if args.trace:
        series = {k: [m[k] for m in layers] for k in (layers[0] if layers else {})}
        series["trace.overhead_ratio"] = [
            statistics.median(s.proc.wall for s in traced)
            / statistics.median(s.proc.wall for s in untraced)
        ]
    else:
        summarize("wall_s, unscaled", "s", [s.proc.wall for s in untraced])
        summarize("cpu_s, unscaled", "s", [s.proc.cpu for s in untraced])
        summarize("reference loop", "s", [s.ref for s in untraced])
        series = {
            "wall_ref": [s.proc.wall / s.ref for s in untraced],
            "cpu_ref": [s.proc.cpu / s.ref for s in untraced],
            "peak_rss_mb": [s.proc.rss_mb for s in untraced],
            "setup_s": setup,
        }
    metrics = {}
    for m in metric_specs:
        values = series.get(m["name"])
        if not values:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": summarize(m["name"], m["unit"], values), "unit": m["unit"]}
    print(f"error_rate: {len(failed)}/{len(samples)} = {len(failed) / len(samples):.6g}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
