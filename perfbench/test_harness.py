"""Tests of the benchmark harness (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402


def uniform_hist(n):
    """n samples with values 1..n, one per bucket."""
    return [[v, 1] for v in range(1, n + 1)]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        hist = uniform_hist(100)
        self.assertEqual(harness.percentile(hist, 50), 50)
        self.assertEqual(harness.percentile(hist, 99), 99)
        self.assertEqual(harness.percentile(hist, 100), 100)
        self.assertEqual(harness.percentile([[7, 3], [9, 1]], 75), 7)
        self.assertEqual(harness.percentile([[7, 3], [9, 1]], 76), 9)

    def test_tail_is_p99_with_ten_beyond(self):
        pct, value, n = harness.tail_percentile(uniform_hist(1000))
        self.assertEqual((pct, value, n), (99.0, 990, 1000))
        self.assertEqual(harness.samples_beyond(1000, 99.0), 10)

    def test_tail_drops_when_fewer_than_ten_beyond(self):
        # 999 samples: p99 has only 9 beyond, so p90 (99 beyond) is used.
        pct, value, n = harness.tail_percentile(uniform_hist(999))
        self.assertEqual(harness.samples_beyond(999, 99.0), 9)
        self.assertEqual((pct, value, n), (90.0, 900, 999))

    def test_tail_of_a_few_hundred_samples(self):
        # The fleet's 300 chunk timings: p99 has 3 beyond, p90 has 30.
        pct, _, n = harness.tail_percentile(uniform_hist(300))
        self.assertEqual((pct, n), (90.0, 300))

    def test_tail_counts_bucketed_samples(self):
        hist = [[10, 500], [20, 480], [1000, 20]]
        pct, value, n = harness.tail_percentile(hist)
        self.assertEqual((pct, value, n), (99.0, 1000, 1000))

    def test_tiny_sample_falls_back_to_median(self):
        pct, value, n = harness.tail_percentile(uniform_hist(5))
        self.assertEqual((pct, value, n), (50.0, 3, 5))

    def test_empty_histogram_is_an_error(self):
        with self.assertRaises(ValueError):
            harness.percentile([], 50)


class FailRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(harness.fail_ratio(100, 0), 0.0)
        self.assertEqual(harness.fail_ratio(100, 3), 0.03)
        self.assertEqual(harness.fail_ratio(7, 7), 1.0)

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(harness.fail_ratio(0, 0), 1.0)

    def test_inconsistent_counts_rejected(self):
        for attempted, failed in ((5, 6), (-1, 0), (3, -1)):
            with self.assertRaises(ValueError):
                harness.fail_ratio(attempted, failed)


def span(sid, start, end, parent=0, name="s"):
    return {"id": sid, "start": start, "end": end, "parent": parent,
            "name": name, "request": 1, "ops": 1}


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(harness.self_times([span(1, 0, 100)]), {1: 100})

    def test_overlapping_children_counted_once(self):
        spans = [span(1, 0, 100),
                 span(2, 10, 40, 1), span(3, 30, 60, 1),  # overlap 30..40
                 span(4, 90, 120, 1)]                     # runs past parent
        selfs = harness.self_times(spans)
        # Covered: 10..60 (50) + 90..100 (10) = 60.
        self.assertEqual(selfs[1], 40)
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[4], 30)

    def test_child_inside_another_child(self):
        spans = [span(1, 0, 100), span(2, 10, 80, 1), span(3, 20, 30, 1)]
        self.assertEqual(harness.self_times(spans)[1], 30)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, 100), span(2, 0, 50, 1), span(3, 0, 50, 2)]
        selfs = harness.self_times(spans)
        self.assertEqual((selfs[1], selfs[2], selfs[3]), (50, 0, 50))

    def test_by_name(self):
        spans = [span(1, 0, 100, name="setup"),
                 span(2, 10, 30, 1, name="install"),
                 span(3, 40, 70, 1, name="install")]
        table = harness.self_time_by_name(spans)
        self.assertEqual(table["setup"], (1, 100, 50, 1))
        self.assertEqual(table["install"], (2, 50, 50, 2))


class CompletenessTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def metrics_for(self, entries):
        return {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in entries}

    def test_complete_output_passes(self):
        for key in ("end_to_end", "per_layer"):
            entries = self.spec[key]
            self.assertEqual(
                harness.check_metrics(self.metrics_for(entries), entries), [])

    def test_missing_wrong_unit_extra_and_nan_are_reported(self):
        entries = self.spec["end_to_end"]
        metrics = self.metrics_for(entries)
        del metrics["setup_s"]
        metrics["ops_per_s"]["unit"] = "ms"
        metrics["op_p50_us"]["value"] = math.nan
        metrics["bogus"] = {"value": 1, "unit": "s"}
        problems = harness.check_metrics(metrics, entries)
        self.assertEqual(len(problems), 4, problems)

    def test_duplicate_names_in_spec_are_reported(self):
        entries = self.spec["end_to_end"] + self.spec["end_to_end"][:1]
        problems = harness.check_metrics(self.metrics_for(entries), entries)
        self.assertTrue(any("twice" in p for p in problems), problems)

    def test_every_metric_name_is_used_once_across_the_spec(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)

    def test_end_to_end_covers_the_spec(self):
        record = {
            "workload": "raise",
            "setup_s": [0.3, 0.1, 0.2],
            "peak_rss_mib": 9.5,
            "ops_per_s": 1e6,
            "timings": {"raise_ns": {"per": 16, "hist": uniform_hist(2000)}},
        }
        values = run.end_to_end(record)
        self.assertEqual(set(values),
                         {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["op_p50_us"], 1000 / 16 / 1e3)
        self.assertAlmostEqual(values["op_tail_us"], 1980 / 16 / 1e3)

    def test_binary_reports_every_per_layer_metric(self):
        with open(os.path.join(HERE, "bench", "main.cc")) as f:
            source = f.read()
        table = source[source.index("kLayerMetrics[]"):]
        table = table[:table.index("};")]
        binary_names = re.findall(r'\{"([^"]+)", "[^"]+"\}', table)
        self.assertEqual(sorted(binary_names),
                         sorted(m["name"] for m in self.spec["per_layer"]))

    def test_every_workload_has_a_primary_timing(self):
        names = {w["name"] for w in self.spec["workloads"]}
        self.assertLessEqual(names, set(run.PRIMARY))
        self.assertEqual(set(run.PRIMARY), set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
