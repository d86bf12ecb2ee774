"""Tests for the census benchmark's own arithmetic and metric catalogue.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import stats  # noqa: E402


def span(id_, parent, start, end, name="x", calls=1):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "end": end, "calls": calls}


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),   # overlaps its sibling 3 on [30, 40)
            span(3, 1, 30, 60),
            span(4, 2, 15, 20),   # grandchild: only counts against 2
        ]
        self.assertEqual(stats.self_times(spans),
                         {1: 50, 2: 25, 3: 30, 4: 5})

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 100, 200), span(2, 1, 150, 260),
                 span(3, 1, 20, 90)]
        self.assertEqual(stats.self_times(spans)[1], 50)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(7, 0, 5, 12)]), {7: 7})

    def test_covered_is_union_length(self):
        self.assertEqual(stats.covered_ns([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(stats.covered_ns([]), 0)


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.supported_percentile(19))
        self.assertEqual(stats.supported_percentile(20), 50.0)
        self.assertEqual(stats.supported_percentile(100), 90.0)
        self.assertEqual(stats.supported_percentile(999), 90.0)
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(9999), 99.0)
        self.assertEqual(stats.supported_percentile(10000), 99.9)

    def test_tail_refuses_unsupported_percentile(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(500)), 99)
        self.assertAlmostEqual(stats.tail(list(range(1001)), 99), 990.0)

    def test_percentile_interpolates(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(xs, 50), 3)
        self.assertEqual(stats.percentile(xs, 25), 2)
        self.assertEqual(stats.percentile(xs, 100), 5)
        self.assertAlmostEqual(stats.percentile([0, 10], 99), 9.9)

    def test_per_call_divides_by_calls(self):
        spans = [span(1, 0, 0, 640, "a", 64), span(2, 0, 0, 50, "b"),
                 span(3, 0, 100, 300, "a", 20)]
        self.assertEqual(stats.per_call(spans, "a"), [10.0, 10.0])
        self.assertEqual(stats.per_call(spans, "b", 1e-3), [0.05])


class Summary(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
        s = stats.quartile_summary(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["median"], statistics.median(values))
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / s["median"])
        self.assertEqual(s["n"], 10)

    def test_known_quartiles(self):
        s = stats.quartile_summary(range(1, 11))
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s["spread"], 1.0)

    def test_single_value_has_no_spread(self):
        self.assertEqual(stats.quartile_summary([4.0])["spread"], 0.0)

    def test_parse_spans(self):
        doc = {"run_id": "ab", "spans": [[1, 0, "census.x", 10, 20, 1],
                                         [2, 1, "data.hash", 12, 18, 3]]}
        parsed = stats.parse_spans(doc)
        self.assertEqual(parsed[1], span(2, 1, 12, 18, "data.hash", 3))


class Catalogue(unittest.TestCase):
    """BENCHMARK.json, layers.json and spec.json agree."""

    @classmethod
    def setUpClass(cls):
        def load(path):
            with open(path) as f:
                return json.load(f)
        cls.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        cls.spec = load(os.path.join(BENCH_DIR, "spec.json"))
        cls.layers = load(os.path.join(BENCH_DIR, "layers.json"))
        cls.layers.pop("_doc")

    def test_every_per_layer_metric_names_what_it_moves(self):
        declared = {m["name"] for m in self.bench["per_layer"]}
        self.assertEqual(declared, set(self.layers))
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        for name, moves in self.layers.items():
            if not name.startswith("trace."):
                self.assertTrue(moves, name)
            for move in moves:
                self.assertIn(move["metric"], e2e, name)
                self.assertTrue(move["workloads"], name)
                self.assertLessEqual(set(move["workloads"]), workloads, name)

    def test_workloads_match(self):
        self.assertEqual({w["name"] for w in self.bench["workloads"]},
                         set(self.spec["workloads"]))

    def test_pins_cover_both_worlds_and_every_input(self):
        world = self.spec["world"]
        for seed in (world["seed"], world["heldout_seed"]):
            pins = self.spec["pins"][str(seed)]
            self.assertEqual(set(pins),
                             {str(s) for s in self.spec["input_seeds"]})


if __name__ == "__main__":
    unittest.main()
