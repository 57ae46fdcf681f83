"""Tests of the benchmark's reductions.

    python3 -m unittest discover -s perfbench
"""

import json
import unittest
from pathlib import Path

import run
import stats


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(199)), 0.95))
        self.assertEqual(stats.percentile(list(range(1, 201)), 0.95), 190)
        self.assertIsNone(stats.percentile(list(range(19)), 0.50))
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.50), 10)
        self.assertIsNone(stats.percentile([], 0.50))

    def test_nearest_rank_of_unsorted_samples(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3] * 10, 0.50), 3)


class ServeLayersTest(unittest.TestCase):
    @staticmethod
    def doc(done, failed):
        return {"latency_ms": {"all": done, "encode": done,
                               "decode": done, "lag": done},
                "failed_sessions": failed}

    def test_failures_count_as_latency_limit_misses(self):
        done = [100.0] * 190 + [900.0] * 10
        layers = stats.serve_layers(self.doc(done, 50), slo_ms=500)
        self.assertAlmostEqual(layers["serve.slo_miss_frac"], 60 / 250)
        self.assertEqual(layers["serve.session_p95_ms"], 100.0)

    def test_too_few_sessions_for_p95_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.serve_layers(self.doc([100.0] * 150, 0), slo_ms=500)

    def test_no_sessions_reads_zero(self):
        layers = stats.serve_layers(self.doc([], 0), slo_ms=500)
        self.assertEqual(set(layers), set(stats.SERVE_LAYERS))
        self.assertTrue(all(v == 0 for v in layers.values()))


class ResultTest(unittest.TestCase):
    BENCH = {"end_to_end": [
        {"name": n, "unit": "u"}
        for n in ("encode_fps", "decode_fps", "peak_rss_mb", "setup_s")]}

    @staticmethod
    def doc(mismatches=(), errors=()):
        return {"failed": len(mismatches) + len(errors), "attempted": 10,
                "mismatches": list(mismatches), "errors": list(errors),
                "setup_s": [1.0], "peak_rss_mb": 1.0,
                "host_kernel_s": [stats.HOST_KERNEL_REF_S],
                "samples": {"encode_fps": [5.0], "decode_fps": [6.0]}}

    def test_times_scale_by_host_speed(self):
        doc = self.doc()
        ref = stats.HOST_KERNEL_REF_S
        doc["host_kernel_s"] = [2 * ref, 3 * ref, 1.5 * ref]
        e2e = stats.end_to_end(doc)
        self.assertAlmostEqual(e2e["encode_fps"], 10.0)
        self.assertAlmostEqual(e2e["decode_fps"], 12.0)
        self.assertAlmostEqual(e2e["setup_s"], 0.5)
        self.assertEqual(e2e["peak_rss_mb"], 1.0)

    def test_metrics_must_match_benchmark_json(self):
        bench = {"end_to_end": [{"name": "encode_fps", "unit": "frames/s"}]}
        with self.assertRaises(ValueError):
            stats.result(self.doc(), False, bench, slo_ms=500)

    def test_clean_run_is_correct(self):
        out = stats.result(self.doc(), False, self.BENCH, slo_ms=500)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)

    def test_failed_or_shed_operation_is_incorrect(self):
        out = stats.result(self.doc(errors=["session 3: Overloaded"]),
                           False, self.BENCH, slo_ms=500)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)

    def test_wrong_output_is_incorrect(self):
        out = stats.result(self.doc(mismatches=["stream differs"]),
                           False, self.BENCH, slo_ms=500)
        self.assertFalse(out["correct"])

    def test_serve_fec_why_states_rate_and_limit(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        bench = json.loads(path.read_text())
        why = next(w["why"] for w in bench["workloads"]
                   if w["name"] == "serve_fec")
        self.assertIn(f"{run.ARRIVAL_PER_S:g} sessions/s", why)
        self.assertIn(f"{run.SLO_MS:g} ms", why)


if __name__ == "__main__":
    unittest.main()
