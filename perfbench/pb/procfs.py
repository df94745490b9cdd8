"""Reads CPU time, context switches and peak RSS of a process from /proc.

CPU time comes from each thread's schedstat (nanoseconds spent running).
Context switches and VmHWM come from status; VmHWM can be reset to the
current RSS through clear_refs, so a peak can be read per window.
"""

import os
import time
from dataclasses import dataclass, field

def parse_schedstat_cpu_s(text):
    """Running time in seconds from a schedstat line: `run_ns wait_ns slices`."""
    return int(text.split()[0]) / 1e9


def parse_status(text):
    """The fields of a /proc status file this benchmark uses (kB and counts)."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key == "VmHWM":
            out[key] = int(value.split()[0])
        elif key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
            out[key] = int(value.strip())
    return out


def _read(path):
    with open(path, encoding="ascii", errors="replace") as f:
        return f.read()


def reset_peak_rss(pid):
    """Resets the process's VmHWM to its current RSS."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as f:
        f.write("5")


def peak_rss_kb(pid):
    """The process's VmHWM in kB."""
    return parse_status(_read(f"/proc/{pid}/status"))["VmHWM"]


@dataclass
class ThreadSample:
    cpu_s: float
    vcsw: int
    ivcsw: int


@dataclass
class ProcSample:
    """One reading of a process and all of its threads."""
    pid: int
    t: float
    threads: dict = field(default_factory=dict)  # tid -> ThreadSample

    @property
    def cpu_s(self):
        return sum(t.cpu_s for t in self.threads.values())

    @property
    def csw(self):
        return sum(t.vcsw + t.ivcsw for t in self.threads.values())

    @property
    def vcsw(self):
        return sum(t.vcsw for t in self.threads.values())


def sample(pid):
    """Reads one ProcSample; threads that exit mid-read are skipped."""
    s = ProcSample(pid=pid, t=time.monotonic())
    task_root = f"/proc/{pid}/task"
    for tid in os.listdir(task_root):
        task_dir = os.path.join(task_root, tid)
        try:
            ts = parse_status(_read(os.path.join(task_dir, "status")))
            s.threads[int(tid)] = ThreadSample(
                cpu_s=parse_schedstat_cpu_s(
                    _read(os.path.join(task_dir, "schedstat"))),
                vcsw=ts.get("voluntary_ctxt_switches", 0),
                ivcsw=ts.get("nonvoluntary_ctxt_switches", 0))
        except OSError:
            continue
    return s


@dataclass
class ProcDelta:
    """What a process did between two samples."""
    wall_s: float
    cpu_s: float
    csw: int
    vcsw: int
    max_thread_busy: float

    @property
    def cpu_busy(self):
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0


def delta(pairs):
    """What a process did over one or more (before, after) sample pairs."""
    wall = cpu = 0.0
    csw = vcsw = 0
    per_thread = {}
    for before, after in pairs:
        wall += after.t - before.t
        cpu += after.cpu_s - before.cpu_s
        csw += after.csw - before.csw
        vcsw += after.vcsw - before.vcsw
        for tid, t in after.threads.items():
            b = before.threads.get(tid)
            per_thread[tid] = per_thread.get(tid, 0.0) + t.cpu_s - (
                b.cpu_s if b else 0.0)
    busiest = max(per_thread.values(), default=0.0) / wall if wall > 0 else 0.0
    return ProcDelta(wall_s=wall, cpu_s=cpu, csw=csw, vcsw=vcsw,
                     max_thread_busy=busiest)
