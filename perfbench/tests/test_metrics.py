"""Metric names and units: valid, unique, and the same as BENCHMARK.json."""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from pb import metrics, workloads  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def name_problems(table):
    """Names/units that break the benchmark contract (empty when all valid)."""
    problems = []
    seen = set()
    for name, unit, *_ in table:
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not UNIT_RE.match(unit):
            problems.append(f"bad unit {unit!r} for {name}")
        if name in seen:
            problems.append(f"duplicate metric {name}")
        seen.add(name)
    return problems


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_valid(self):
        self.assertEqual(name_problems(metrics.END_TO_END + metrics.PER_LAYER),
                         [])

    def test_the_check_catches_bad_entries(self):
        problems = name_problems(metrics.END_TO_END + [
            ("_bad", "s", "lower"), ("ok.name", "bad unit", "lower"),
            ("setup_s", "s", "lower"), ("x" * 65, "s", "lower")])
        self.assertEqual(len(problems), 4)

    def test_setup_s_has_the_largest_bound(self):
        bounds = {n: b for n, _, _, b in metrics.END_TO_END}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_result_line_shape(self):
        names = [m[0] for m in metrics.END_TO_END]
        line = metrics.result_line(True, 0, 0, {n: 1.5 for n in names}, names)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["attempted"], 1)
        self.assertEqual(line["metrics"]["setup_s"], {"value": 1.5, "unit": "s"})


@unittest.skipUnless(os.path.exists(BENCHMARK_JSON), "no BENCHMARK.json")
class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON, encoding="utf-8") as f:
            self.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})

    def test_workloads_match(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(workloads.WORKLOADS))

    def test_end_to_end_match(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in self.spec["end_to_end"]],
            [tuple(m) for m in metrics.END_TO_END])

    def test_per_layer_match(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
            [tuple(m) for m in metrics.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
