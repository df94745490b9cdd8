"""Span self-time arithmetic and the scrape-histogram deltas."""

import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import scrape, spans  # noqa: E402


def span(layer, t0, t1):
    return {"layer": layer, "name": layer, "t0": t0, "t1": t1}


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        own = spans.self_times([
            span("bench", 0.0, 10.0),
            span("loadgen", 1.0, 4.0),
            span("scrape", 2.0, 3.0),   # inside loadgen, not inside bench
            span("replay", 5.0, 9.0),
            span("net", 5.5, 6.0),
            span("net", 6.0, 7.5),      # back-to-back siblings
        ])
        self.assertAlmostEqual(own["bench"], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(own["loadgen"], 2.0)
        self.assertAlmostEqual(own["scrape"], 1.0)
        self.assertAlmostEqual(own["replay"], 4.0 - 2.0)
        self.assertAlmostEqual(own["net"], 2.0)
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_order_of_input_does_not_matter(self):
        items = [span("a", 0, 4), span("b", 1, 2), span("c", 2, 3)]
        self.assertEqual(spans.self_times(items),
                         spans.self_times(list(reversed(items))))

    def test_disjoint_roots(self):
        own = spans.self_times([span("a", 0, 1), span("a", 2, 4)])
        self.assertAlmostEqual(own["a"], 3.0)

    def test_tracer_off_records_nothing_and_jsonl_round_trips(self):
        off = spans.Tracer(False)
        with off.span("x", "y"):
            pass
        self.assertEqual(off.spans, [])
        on = spans.Tracer(True)
        with on.span("outer", "o"):
            with on.span("inner", "i"):
                pass
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.jsonl")
            on.write_jsonl(path)
            back = spans.read_jsonl(path)
        self.assertEqual([s["layer"] for s in back], ["outer", "inner"])


PROM_A = """net_loop_work_s_bucket{le="1e-06"} 2
net_loop_work_s_bucket{le="2e-06"} 5
net_loop_work_s_bucket{le="+Inf"} 5
net_request_latency_s_bucket{op="get",outcome="hit",le="1e-05"} 10
net_request_latency_s_bucket{op="get",outcome="hit",le="+Inf"} 10
proxy_requests 7
"""
PROM_B = """net_loop_work_s_bucket{le="1e-06"} 2
net_loop_work_s_bucket{le="2e-06"} 5
net_loop_work_s_bucket{le="4e-06"} 105
net_loop_work_s_bucket{le="+Inf"} 105
net_request_latency_s_bucket{op="get",outcome="hit",le="1e-05"} 40
net_request_latency_s_bucket{op="get",outcome="hit",le="+Inf"} 40
net_request_latency_s_bucket{op="set",outcome="stored",le="2e-05"} 30
net_request_latency_s_bucket{op="set",outcome="stored",le="+Inf"} 30
proxy_requests 19
"""


class ScrapeDeltas(unittest.TestCase):
    def test_counter_delta(self):
        a, b = scrape.parse_prometheus(PROM_A), scrape.parse_prometheus(PROM_B)
        self.assertEqual(scrape.counter(b, "proxy_requests") -
                         scrape.counter(a, "proxy_requests"), 12)

    def test_window_quantile_ignores_earlier_samples(self):
        a = scrape.buckets(scrape.parse_prometheus(PROM_A), "net_loop_work_s")
        b = scrape.buckets(scrape.parse_prometheus(PROM_B), "net_loop_work_s")
        # All 100 samples of the window landed in the 4 us bucket.
        self.assertEqual(scrape.quantile(scrape.delta_buckets(a, b), 0.01), 4e-06)
        self.assertIsNone(scrape.quantile(scrape.delta_buckets(a, a), 0.5))

    def test_windows_and_processes_sum(self):
        a = scrape.buckets(scrape.parse_prometheus(PROM_A), "net_loop_work_s")
        b = scrape.buckets(scrape.parse_prometheus(PROM_B), "net_loop_work_s")
        both = scrape.sum_buckets([scrape.delta_buckets(a, b),
                                   scrape.delta_buckets({}, a)])
        self.assertEqual(both[math.inf], 105)
        self.assertEqual(scrape.quantile(both, 0.01), 1e-06)
        self.assertEqual(scrape.quantile(both, 0.5), 4e-06)

    def test_label_sets_merge(self):
        b = scrape.buckets(scrape.parse_prometheus(PROM_B),
                           "net_request_latency_s")
        self.assertEqual(b, {1e-05: 40, 2e-05: 70, math.inf: 70})
        self.assertEqual(scrape.quantile(b, 0.5), 1e-05)
        self.assertEqual(scrape.quantile(b, 0.99), 2e-05)

    def test_stats_block(self):
        self.assertEqual(scrape.parse_stats(
            "STAT cmd_get 12\r\nSTAT version spotcache-1.6.0\r\nSTAT x 0.5\r\n"),
            {"cmd_get": 12, "version": "spotcache-1.6.0", "x": 0.5})


if __name__ == "__main__":
    unittest.main()
