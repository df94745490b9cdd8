"""Spawning and stopping the real server, proxy and driver processes."""

import json
import os
import select
import signal
import subprocess
import time


def cpu_plan(topology):
    """CPU sets that keep the driver off the serving processes' cores.

    The driver spins while it waits for the next send time, so it gets a
    core of its own; the proxy and the servers share the others and may
    migrate among them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    rest = set(cpus[1:])
    plan = {"driver": {cpus[0]}, "server0": rest, "server1": rest}
    if topology == "proxy":
        plan["proxy"] = rest
    return plan


def _pinned(cpus):
    """preexec_fn that pins the child (and every thread it starts)."""
    return lambda: os.sched_setaffinity(0, cpus)


class LineReader:
    """Line reads from a pipe with a deadline (no blocking readline)."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = b""

    def readline(self, timeout):
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                raise TimeoutError("no line within %.1f s" % timeout)
            chunk = os.read(self.fd, 65536)
            if not chunk:
                raise EOFError("pipe closed")
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode(errors="replace")


class Proc:
    """A child process that announces `listening <port>` when ready."""

    def __init__(self, name, argv, cpus, want_metrics=True):
        self.name = name
        self.popen = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT,
                                      preexec_fn=_pinned(cpus))
        self.reader = LineReader(self.popen.stdout)
        self.want_metrics = want_metrics
        self.port = 0
        self.metrics_port = 0

    @property
    def pid(self):
        return self.popen.pid

    def wait_ready(self, timeout=10.0):
        line = self.reader.readline(timeout)
        if not line.startswith("listening "):
            raise RuntimeError(f"{self.name}: unexpected readiness {line!r}")
        self.port = int(line.split()[1])
        if self.want_metrics:
            line = self.reader.readline(timeout)
            if not line.startswith("metrics listening "):
                raise RuntimeError(f"{self.name}: no metrics line {line!r}")
            self.metrics_port = int(line.split()[2])
        return self

    def signal(self, sig):
        if self.popen.poll() is None:
            self.popen.send_signal(sig)

    def stop(self, timeout=5.0):
        """SIGTERM, drain its output, SIGKILL if it lingers; always reaps."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
        try:
            self.popen.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.communicate()


class Fleet:
    """The processes of one workload: servers, optionally the proxy."""

    def __init__(self, bins, workload, spans_dir=None):
        self.servers = []
        self.proxy = None
        self.bins = bins
        self.workload = workload
        self.spans_dir = spans_dir
        self.cpus = cpu_plan(workload.topology)

    def _span_args(self, name):
        if self.spans_dir is None:
            return []
        return [f"--spans={os.path.join(self.spans_dir, name + '.jsonl')}"]

    def start(self):
        w = self.workload
        count = 2 if w.topology == "proxy" else 1
        for i in range(count):
            argv = [self.bins["server"], "--port=0", "--metrics-port=0",
                    *w.server_args, *self._span_args(f"server{i}")]
            self.servers.append(Proc(f"server{i}", argv,
                                     self.cpus[f"server{i}"]))
        for s in self.servers:
            s.wait_ready()
        if w.topology == "proxy":
            nodes = [f"--node={i}:127.0.0.1:{s.port}"
                     for i, s in enumerate(self.servers)]
            argv = [self.bins["proxy"], "--port=0", "--metrics-port=0",
                    *nodes, *self._span_args("proxy")]
            self.proxy = Proc("proxy", argv, self.cpus["proxy"]).wait_ready()
        return self

    @property
    def entry(self):
        return self.proxy if self.proxy is not None else self.servers[0]

    @property
    def procs(self):
        return self.servers + ([self.proxy] if self.proxy else [])

    def stop(self):
        for p in reversed(self.procs):
            p.stop()


class Driver:
    """The single-threaded load coprocess (`perfbench_driver serve`)."""

    def __init__(self, binary, cpus):
        self.popen = subprocess.Popen([binary, "serve"], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE,
                                      preexec_fn=_pinned(cpus))
        self.reader = LineReader(self.popen.stdout)

    @property
    def pid(self):
        return self.popen.pid

    def call(self, line, timeout=60.0):
        self.popen.stdin.write((line + "\n").encode())
        self.popen.stdin.flush()
        reply = json.loads(self.reader.readline(timeout))
        if not reply.get("ok"):
            raise RuntimeError(f"driver: {line.split()[0]} failed: "
                               f"{reply.get('error', reply)}")
        return reply

    def stop(self):
        if self.popen.poll() is None:
            try:
                self.popen.stdin.write(b"quit\n")
                self.popen.stdin.flush()
                self.popen.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self.popen.kill()
                self.popen.wait()
