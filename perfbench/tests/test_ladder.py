"""The ladder search on synthetic p99 curves."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import ladder  # noqa: E402


def curve(knee, base_us=100.0, ceiling=1e9, noise=None):
    """measure(rate) for a queue-like p99 that explodes at `knee` rps."""
    def measure(rate):
        load = min(rate / knee, 0.999)
        p99 = base_us / (1 - load) ** 2 * (noise.get(rate, 1.0) if noise else 1)
        return ladder.Rung(rate=rate, p99_us=p99, achieved_frac=1.0,
                           failures=0, generator_busy=rate / ceiling)
    return measure


class Ladder(unittest.TestCase):
    def test_rates_are_geometric_above_heavy(self):
        self.assertEqual(ladder.rung_rates(100, 1.5, 3), [150, 225, 338])

    def test_finds_the_last_rate_under_the_slo(self):
        measure = curve(knee=40_000)
        rates = ladder.rung_rates(20_000, 1.1, 10)
        r = ladder.search([measure(20_000)], rates, measure)
        # p99 <= 1 ms  <=>  load <= 1 - sqrt(0.1) ~ 0.684 -> 27.35k rps.
        self.assertEqual(r.max_rps, 26_620)
        self.assertFalse(r.generator_bound)
        self.assertFalse(r.capped)
        self.assertEqual([x.passed for x in r.rungs], [True, True, True, False,
                                                         False])

    def test_one_noisy_rung_does_not_end_the_climb(self):
        measure = curve(knee=40_000, noise={22_000: 20.0})
        r = ladder.search([measure(20_000)], ladder.rung_rates(20_000, 1.1, 10),
                          measure)
        self.assertEqual(r.max_rps, 26_620)
        self.assertEqual(r.rungs[0].reason, "p99")

    def test_second_pass_rescues_a_noisy_stretch(self):
        clean = curve(knee=40_000)
        calls = {}

        def measure(rate):
            calls[rate] = calls.get(rate, 0) + 1
            rung = clean(rate)
            if calls[rate] == 1 and rate in (24_200, 26_620):
                rung.p99_us *= 20  # a few bad seconds during the first pass
            return rung

        r = ladder.search([clean(20_000)], ladder.rung_rates(20_000, 1.1, 10),
                          measure)
        self.assertEqual(r.max_rps, 26_620)
        # Pass 1 stopped at 26.6k; pass 2 re-measured 26.6k, 24.2k, 22k.
        self.assertEqual(calls, {22_000: 2, 24_200: 2, 26_620: 2})

    def test_floors_are_the_answer_when_no_rung_passes(self):
        measure = curve(knee=25_000)
        r = ladder.search([measure(10_000), measure(15_000)], [20_000, 30_000],
                          measure)
        self.assertEqual(r.max_rps, 15_000)
        # heavy missed the SLO during a noisy stretch: light still counts.
        noisy_heavy = measure(15_000)
        noisy_heavy.p99_us = 5000
        r = ladder.search([measure(10_000), noisy_heavy], [20_000], measure)
        self.assertEqual(r.max_rps, 10_000)

    def test_zero_when_even_the_floors_fail(self):
        measure = curve(knee=10_000)
        r = ladder.search([measure(9_000)], [10_000], measure)
        self.assertEqual(r.max_rps, 0.0)

    def test_generator_guard_stops_and_is_never_counted(self):
        measure = curve(knee=1e9, ceiling=100_000)
        r = ladder.search([measure(50_000)], ladder.rung_rates(50_000, 1.2, 10),
                          measure)
        self.assertTrue(r.generator_bound)
        self.assertEqual(r.rungs[-1].reason, "generator")
        self.assertLessEqual(r.max_rps, 0.9 * 100_000)
        self.assertEqual(r.max_rps, 86_400)

    def test_capped_when_every_rung_passes(self):
        measure = curve(knee=1e9)
        r = ladder.search([measure(10)], [20, 30], measure)
        self.assertTrue(r.capped)
        self.assertEqual(r.max_rps, 30)

    def test_ceiling_is_the_highest_passing_rate(self):
        rates = [10, 20, 30, 40, 50, 60, 70]
        tried = []

        def passes_below(limit):
            def passes(rate):
                tried.append(rate)
                return rate <= limit
            return passes

        self.assertEqual(ladder.highest_passing(rates, passes_below(45)), 40)
        self.assertEqual(tried[0], 70)  # the top rate is tried first
        self.assertLessEqual(len(tried), 4)
        tried.clear()
        self.assertEqual(ladder.highest_passing(rates, passes_below(99)), 70)
        self.assertEqual(tried, [70])
        self.assertEqual(ladder.highest_passing(rates, passes_below(5)), 0)
        self.assertEqual(ladder.highest_passing(rates, passes_below(10)), 10)

    def test_failures_and_throughput_fail_a_rung(self):
        ok = dict(rate=1, p99_us=10, achieved_frac=1.0, failures=0,
                  generator_busy=0.1)
        self.assertEqual(ladder.judge(ladder.Rung(**ok)).reason, "ok")
        self.assertEqual(ladder.judge(ladder.Rung(**{**ok, "failures": 1})).reason,
                         "failures")
        self.assertEqual(
            ladder.judge(ladder.Rung(**{**ok, "achieved_frac": 0.98})).reason,
            "throughput")


if __name__ == "__main__":
    unittest.main()
