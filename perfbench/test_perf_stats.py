"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_perf_stats.py
"""

import json
import math
import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import perf_stats  # noqa: E402  (after the bytecode switch)

N = perf_stats.NOMINAL_PROBE_MS  # a probe reading at nominal host speed
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(id_, parent, name, start, end, request=0):
    return {"id": id_, "parent": parent, "name": name, "start_us": start,
            "end_us": end, "request": request}


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(perf_stats.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(perf_stats.percentile([7], 0.99), 7)

    def test_p99_resolved_with_ten_samples_beyond(self):
        values = list(range(1, 1001))  # p99 = 990.01, 991..1000 beyond
        self.assertEqual(perf_stats.samples_beyond(values, 0.99), 10)
        value, resolved = perf_stats.tail_value(values, 0.99)
        self.assertTrue(resolved)
        self.assertAlmostEqual(value, 990.01)

    def test_p99_falls_back_to_max_below_ten_beyond(self):
        values = list(range(1, 901))  # only 9 samples beyond p99
        self.assertEqual(perf_stats.samples_beyond(values, 0.99), 9)
        value, resolved = perf_stats.tail_value(values, 0.99)
        self.assertFalse(resolved)
        self.assertEqual(value, 900)
        self.assertGreaterEqual(value, perf_stats.percentile(values, 0.99))

    def test_ties_at_the_cut_are_not_beyond(self):
        values = [1.0] * 50 + [2.0] * 5
        self.assertEqual(perf_stats.samples_beyond(values, 0.5), 5)


class SelfTime(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertEqual(perf_stats.union_length([(10, 30), (20, 50), (60, 70)]), 50)
        self.assertEqual(perf_stats.union_length([(5, 5), (7, 6)]), 0)

    def test_self_is_duration_minus_covered_union_of_children(self):
        spans = [span(1, 0, "request", 0, 100),
                 span(2, 1, "a", 10, 30), span(3, 1, "b", 20, 50),
                 span(4, 1, "c", 80, 120)]  # c overhangs the parent
        selfs = perf_stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - (40 + 20))
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[4], 40)

    def test_plan_layers_account_for_the_plan_span(self):
        spans = [span(1, 0, "plan", 0, 1000),
                 span(2, 1, "plan/formulation", 0, 100),
                 span(3, 1, "plan/branch_and_bound", 100, 900),
                 span(4, 3, "plan/branch_and_bound/root_lp", 100, 200),
                 span(5, 4, "plan/branch_and_bound/root_lp/simplex", 100, 190),
                 span(6, 3, "plan/branch_and_bound/simplex", 200, 800),
                 span(7, 1, "plan/decode", 900, 950)]
        (layers,) = perf_stats.plan_layers(spans)
        self.assertAlmostEqual(layers["planner.plan_ms"], 1.0)
        self.assertAlmostEqual(layers["planner.formulation_ms"], 0.1)
        self.assertAlmostEqual(layers["lp.root_lp_ms"], 0.1)
        self.assertAlmostEqual(layers["lp.node_lp_ms"], 0.6)
        self.assertAlmostEqual(layers["milp.search_self_ms"], 0.1)
        self.assertAlmostEqual(layers["milp.bnb_ms"], 0.8)
        self.assertAlmostEqual(layers["planner.other_stages_ms"], 0.05)
        self.assertAlmostEqual(layers["planner.unattributed_ms"], 0.05)
        self.assertAlmostEqual(layers["trace.accounted_pct"], 100.0)


class Ratios(unittest.TestCase):
    def test_every_ratio_reports_its_base_counts(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for ratio_name, (num, den) in perf_stats.RATIOS.items():
            self.assertIn(ratio_name, names)
            self.assertIn(num, names, ratio_name)
            self.assertIn(den, names, ratio_name)

    def test_empty_base_is_zero_not_an_error(self):
        self.assertEqual(perf_stats.ratio(5, 0), 0.0)
        self.assertEqual(perf_stats.ratio(3, 4), 0.75)

    def test_per_layer_ratio_matches_its_bases(self):
        raw = solver_raw()
        names = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
        out = perf_stats.per_layer(raw, names)
        self.assertEqual(set(out), {n for n, _ in names})
        self.assertAlmostEqual(out["lp.refactorizations_per_call"]["value"], 2.0)
        self.assertAlmostEqual(out["lp.degenerate_ratio"]["value"], 0.25)


def solver_raw():
    calls = []
    for i, (wall, probe) in enumerate([(100, N), (200, 4 * N), (90, N), (100, N)]):
        calls.append({"thread": i % 2, "start_us": 0, "wall_ms": wall,
                      "probe_ms": probe, "traced": i == 3,
                      "counters": {"lp.calls": 10, "lp.refactorizations": 20,
                                   "lp.pivots": 40, "lp.degenerate_pivots": 10}})
    return {
        "context": {"workload": "enterprise1-exact"},
        "calls": calls,
        "setup": {"samples_ms": [1.0, 6.0, 2.0], "probe_ms": [N, 4 * N, N]},
        "quality": {"plan_cost": 200.0, "lower_bound": 150.0},
        "checks": {"attempted": 4, "failed": 1, "failures": ["x"]},
        "peak_rss_mb": 12.5,
        "probe_start_ms": N,
        "probe_end_ms": N,
        "spans": [span(1, 0, "plan", 0, 100000, 4)],
    }


class Normalization(unittest.TestCase):
    def test_square_root_of_the_probe_ratio(self):
        self.assertEqual(perf_stats.normalized_ms(100.0, N), 100.0)
        self.assertAlmostEqual(perf_stats.normalized_ms(100.0, 4 * N), 50.0)
        self.assertAlmostEqual(perf_stats.normalized_ms(100.0, N / 4), 200.0)


class EndToEnd(unittest.TestCase):
    def test_solver_metrics_are_normalized_medians(self):
        metrics, info = perf_stats.end_to_end(solver_raw())
        # Untraced normalized times: 100, 200 at a 4x slower probe -> 100, 90.
        self.assertAlmostEqual(metrics["solve_s"]["value"], 0.1)
        self.assertAlmostEqual(metrics["latency_p50_ms"]["value"], 100.0)
        self.assertAlmostEqual(metrics["throughput_rps"]["value"],
                               2 / 0.19 + 1 / 0.1)
        self.assertAlmostEqual(metrics["bound_ratio"]["value"], 0.75)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.002)
        self.assertAlmostEqual(metrics["success_ratio"]["value"], 0.75)
        self.assertEqual(info["samples"], 3)

    def test_failed_requests_count_as_over_the_limit(self):
        requests = [{"class": "hit", "ok": True, "traced": False,
                     "start_us": i * 1000.0, "latency_ms": 1.0}
                    for i in range(1000)]
        requests += [{"class": "miss", "ok": i > 10, "traced": False,
                      "start_us": 0.0, "latency_ms": 5.0} for i in range(30)]
        raw = {"context": {"workload": "daemon-mixed"}, "requests": requests,
               "probes_ms": [N], "setup": {"samples_ms": [10.0], "probe_ms": [N]},
               "quality": {"plan_cost": 1.0, "lower_bound": 1.0},
               "checks": {"attempted": 1030, "failed": 11}, "peak_rss_mb": 1.0}
        metrics, info = perf_stats.end_to_end(raw)
        # The 11 failures lie beyond p99, so no finite p99 exists.
        self.assertEqual(info["tail_percentile"], "max")
        self.assertEqual(metrics["latency_tail_ms"]["value"],
                         perf_stats.FAILED_LATENCY_MS)
        self.assertEqual(metrics["latency_p50_ms"]["value"], 1.0)
        self.assertEqual(metrics["solve_s"]["value"], 0.005)
        # 1019 completed requests over the 1.0 s from first start to last end.
        self.assertTrue(math.isclose(metrics["throughput_rps"]["value"], 1019.0))


class BenchmarkSpec(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_spec_follows_its_format(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertRegex(m["unit"], self.UNIT)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], self.UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_every_end_to_end_metric_is_computed(self):
        metrics, _ = perf_stats.end_to_end(solver_raw())
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})


if __name__ == "__main__":
    unittest.main()
