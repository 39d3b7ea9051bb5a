"""Self-tests of the benchmark: span arithmetic and fault injection.

    python3 perfbench/selftest.py

The fault-injection cases run small instances of each workload kind
(GL3, G2 mu=1,0) with a deliberately wrong expected value and require
the iteration to be counted as failed without stopping the run.
"""

from __future__ import annotations

import json
import tempfile
import unittest
from array import array
from pathlib import Path

import bench
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def span_set(rows, counters=None):
    """rows: (name, parent index, start, end) in call order."""
    names = sorted({r[0] for r in rows})
    return spans.SpanSet(
        names,
        array("I", [names.index(r[0]) for r in rows]),
        array("q", [r[1] for r in rows]),
        array("q", [r[2] for r in rows]),
        array("q", [r[3] for r in rows]),
        counters or {},
    )


class SpanArithmetic(unittest.TestCase):
    def test_self_and_inclusive_times_with_recursion(self):
        s = span_set([
            ("a", -1, 0, 100),
            ("r", 0, 10, 60),
            ("r", 1, 20, 50),
            ("r", 2, 25, 35),
            ("b", 1, 52, 58),
            ("r", 0, 70, 90),
            ("a", -1, 200, 210),
        ])
        agg = spans.aggregate(s)
        self.assertEqual(agg["a"], (2, 110, 40))
        self.assertEqual(agg["r"], (4, 70, 64))
        self.assertEqual(agg["b"], (1, 6, 6))

    def test_recorder_round_trip(self):
        rec = spans.Recorder()

        def depth(n):
            return 0 if n == 0 else 1 + wrapped(n - 1)

        wrapped = rec.wrap("hecke.r_poly", depth)
        self.assertEqual(wrapped(3), 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.bin"
            rec.write(path)
            loaded = spans.load(path)
        self.assertEqual(list(loaded.parent), [-1, 0, 1, 2])
        calls, incl, self_ns = spans.aggregate(loaded)["hecke.r_poly"]
        self.assertEqual(calls, 4)
        self.assertEqual(incl, loaded.end[0] - loaded.start[0])
        self.assertEqual(self_ns, incl)
        metrics = spans.layer_metrics(loaded)
        self.assertEqual(metrics["hecke.r_poly_calls"], 4)
        self.assertEqual(metrics["hecke.r_poly_s"], incl / 1e9)

    def test_damaged_spans_file_raises_a_caught_error(self):
        rec = spans.Recorder()
        rec.wrap("hecke.r_poly", lambda: None)()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.bin"
            rec.write(path)
            data = path.read_bytes()
            for damaged in (data[:-1], b"{not json\n" + data.split(b"\n", 1)[1], b""):
                path.write_bytes(damaged)
                with self.assertRaises(run.SPAN_ERRORS):
                    spans.load(path)
            path.unlink()
            with self.assertRaises(run.SPAN_ERRORS):
                spans.load(path)

    def test_layer_metrics_cover_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
        self.assertEqual(set(spans.layer_metrics(span_set([]))), want)


class FaultInjection(unittest.TestCase):
    def setUp(self):
        self.runner = bench.Bench(ROOT, self.enterContext(bench.work_dir(ROOT)))

    def one_run(self, workload, trace=False):
        samples, layers, untraced, _ = run.measure(self.runner, workload, 0, trace)
        self.assertTrue(all(s.ref > 0 for s in untraced))
        return [s.error for s in samples], layers

    def test_mutated_golden_line(self):
        w = bench.TableWorkload("GL3", "2,2,0")
        w.prepare(self.runner)
        self.assertEqual(self.one_run(w)[0], [None])
        w.golden = w.golden.replace(b"l=", b"l=9", 1)
        errors, _ = self.one_run(w)
        self.assertEqual(len(errors), 1)
        self.assertIn("differs", errors[0])

    def test_changed_warm_cache(self):
        w = bench.TableWorkload("GL3", "2,2,0", warm=True)
        w.prepare(self.runner)
        self.assertEqual(self.one_run(w)[0], [None])
        name = next(iter(w.cache_files))
        w.cache_files[name] += b"\n"
        self.assertIn("changed the cache", self.one_run(w)[0][0])

    def test_warm_run_that_does_kl_work(self):
        w = bench.TableWorkload("GL3", "2,2,0", warm=True)
        w.prepare(self.runner)
        w.records += 1
        self.assertIn("loaded", self.one_run(w)[0][0])
        # drop one record from the pristine cache: the run loads the rest
        # and must solve that record's column again
        path = next((w.pristine / "klcache").iterdir())
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        w.records -= 2
        errors, layers = self.one_run(w, trace=True)
        self.assertEqual(errors, ["the warm run solved 1 KL columns, want 0"] * 2)
        self.assertEqual(layers[0]["hecke.cache_records_loaded"], w.records)

    def test_wrong_weight_multiplicity(self):
        w = bench.KlDeepWorkload("G2", "1,0")
        w.prepare(self.runner)
        self.assertEqual(self.one_run(w)[0], [None])
        lam = next(iter(w.expected))
        w.expected[lam] += 1
        self.assertIn("P(1)", self.one_run(w)[0][0])

    def test_kottwitz_support_and_repeatability(self):
        w = bench.KottwitzWorkload("GL3", "1,0,0")
        w.prepare(self.runner)
        errors, layers = self.one_run(w, trace=True)
        self.assertEqual(errors, [None, None])
        self.assertEqual(layers[0]["affweyl.leq_calls"], 0)
        self.assertEqual(layers[0]["hecke.kl_poly_calls"], 0)
        self.assertGreater(layers[0]["central.theta_calls"], 0)
        w.first = w.first + b"\n"
        self.assertIn("first iteration", self.one_run(w)[0][0])
        w.adm.pop()
        self.assertIn("Adm", self.one_run(w)[0][0])

    def test_nonzero_exit(self):
        w = bench.TableWorkload("GL3", "2,2,0")
        w.prepare(self.runner)
        w.mu = "2,2"
        self.assertIn("exit code 2", self.one_run(w)[0][0])


if __name__ == "__main__":
    unittest.main()
