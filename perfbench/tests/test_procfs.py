"""/proc parsing and per-process deltas."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import procfs  # noqa: E402

STATUS = """Name:\tspotcache_serve
State:\tS (sleeping)
VmHWM:\t   61640 kB
VmRSS:\t   58000 kB
Threads:\t3
voluntary_ctxt_switches:\t1500
nonvoluntary_ctxt_switches:\t20
"""


class Parsing(unittest.TestCase):
    def test_schedstat(self):
        self.assertAlmostEqual(procfs.parse_schedstat_cpu_s("1500000000 7 9\n"),
                               1.5)

    def test_status_fields(self):
        self.assertEqual(procfs.parse_status(STATUS),
                         {"VmHWM": 61640,
                          "voluntary_ctxt_switches": 1500,
                          "nonvoluntary_ctxt_switches": 20})

    def test_sample_of_this_process(self):
        s = procfs.sample(os.getpid())
        self.assertIn(os.getpid(), s.threads)
        self.assertGreater(s.cpu_s, 0)

    def test_peak_rss_resets_to_the_current_rss(self):
        block = bytearray(64 << 20)
        block[::4096] = b"x" * len(block[::4096])  # touch every page
        del block
        high = procfs.peak_rss_kb(os.getpid())
        procfs.reset_peak_rss(os.getpid())
        self.assertLess(procfs.peak_rss_kb(os.getpid()), high - 32 * 1024)


class Deltas(unittest.TestCase):
    def test_busy_csw_and_busiest_thread(self):
        a = procfs.ProcSample(pid=1, t=10.0, threads={
            1: procfs.ThreadSample(cpu_s=1.0, vcsw=10, ivcsw=1),
            2: procfs.ThreadSample(cpu_s=0.5, vcsw=0, ivcsw=0)})
        b = procfs.ProcSample(pid=1, t=12.0, threads={
            1: procfs.ThreadSample(cpu_s=1.5, vcsw=30, ivcsw=3),
            2: procfs.ThreadSample(cpu_s=2.1, vcsw=5, ivcsw=0),
            3: procfs.ThreadSample(cpu_s=0.2, vcsw=1, ivcsw=0)})
        d = procfs.delta([(a, b)])
        self.assertAlmostEqual(d.wall_s, 2.0)
        self.assertAlmostEqual(d.cpu_s, 2.3)
        self.assertAlmostEqual(d.cpu_busy, 1.15)
        self.assertEqual(d.csw, 28)
        self.assertEqual(d.vcsw, 26)
        self.assertAlmostEqual(d.max_thread_busy, 0.8)

    def test_several_windows_add_up(self):
        def at(t, cpu):
            return procfs.ProcSample(pid=1, t=t, threads={
                7: procfs.ThreadSample(cpu_s=cpu, vcsw=int(cpu * 10), ivcsw=0)})
        d = procfs.delta([(at(0, 0), at(1, 0.5)), (at(5, 0.6), at(6, 1.6))])
        self.assertAlmostEqual(d.wall_s, 2.0)
        self.assertAlmostEqual(d.cpu_s, 1.5)
        self.assertAlmostEqual(d.cpu_busy, 0.75)
        self.assertEqual(d.vcsw, 15)
        self.assertAlmostEqual(d.max_thread_busy, 0.75)


if __name__ == "__main__":
    unittest.main()
