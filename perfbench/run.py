#!/usr/bin/env python3
"""The serving benchmark: client -> proxy -> fleet, sharded, and evicting.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds spotcache_server, spotcache_proxy
and perfbench_driver from source (into $CARGO_TARGET_DIR, default
.bench_build), starts real server and proxy processes on loopback, and
drives them open loop from one single-threaded driver process over 4
connections. Workloads and metrics are described in perfbench/README.md.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, measured from outside the
programs (replayed public functions, /proc, the stats and metrics scrapes,
and the servers' sampled spans) with the benchmark's own spans on. Details
of every run go to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pb import fleet, ladder, metrics, procfs, scrape, spans, workloads  # noqa: E402

REQUIRED_SOURCES = ["CMakeLists.txt", "src/loadgen/engine.cc",
                    "examples/spotcache_server.cpp",
                    "examples/spotcache_proxy.cpp"]
TARGETS = ["perfbench_driver", "spotcache_server", "spotcache_proxy"]
BUILD_TYPE = "RelWithDebInfo"
AUDIT_KEYS = 2000


def build(build_dir, log_path):
    """Configures (once) and builds the benchmark's targets; returns paths."""
    with open(log_path, "a", encoding="utf-8") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                           stdout=log, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                        *TARGETS], stdout=log, stderr=subprocess.STDOUT,
                       check=True)
    examples = os.path.join(build_dir, "spotcache", "examples")
    return {"driver": os.path.join(build_dir, "perfbench_driver"),
            "server": os.path.join(examples, "spotcache_server"),
            "proxy": os.path.join(examples, "spotcache_proxy")}


def source_commit():
    """The git commit of the sources, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def window_quantile_us(pairs, names, metric, q):
    """q-quantile (us) of histogram `metric` recorded by processes `names`
    within the (scrape before, scrape after) window pairs."""
    parts = [scrape.delta_buckets(scrape.buckets(a[n], metric),
                                  scrape.buckets(b[n], metric))
             for a, b in pairs for n in names]
    v = scrape.quantile(scrape.sum_buckets(parts), q)
    return 0.0 if v is None else v * 1e6


class Bench:
    def __init__(self, workload, bins, seed, seconds, trace, out_dir):
        self.w = workload
        self.bins = bins
        self.seed = seed
        self.trace = trace
        self.out_dir = out_dir
        self.plan = workloads.plan_for(seconds)
        self.tracer = spans.Tracer(trace)
        self.tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.driver = None
        self.fleet = None
        self.stat_clients = {}
        self.windows = []
        self.heavy_samples = []  # ((procs, scrapes) before, after) per window
        self.heavy_peaks = []    # {process name: VmHWM kB} per heavy window
        self.window_seq = 0
        self.checks = {}
        self.values = {}
        self.details = {}

    # --- plumbing -----------------------------------------------------------

    def close(self):
        for c in self.stat_clients.values():
            c.close()
        self.stat_clients = {}
        if self.fleet is not None:
            self.fleet.stop()
        if self.driver is not None:
            self.driver.stop()

    def next_seed(self):
        self.window_seq += 1
        return self.seed * 1000 + self.window_seq

    def window(self, rate, dur, phase):
        port = self.fleet.entry.port
        stream = self.w.stream_args(self.next_seed())
        # The shard probe is a `stats spotcache` round trip; the proxy would
        # count it as a request, so only direct servers are probed.
        probe = int(self.w.topology == "direct")
        with self.tracer.span("loadgen", f"window.{phase}"):
            w = self.driver.call(f"window port={port} rate={rate} dur={dur:.4f} "
                                 f"probe={probe} {stream}")
        w.update(phase=phase, rate=rate)
        self.windows.append(w)
        return w

    def server_stats(self):
        with self.tracer.span("scrape", "stats"):
            return [self.stat_clients[s.name].stats() for s in self.fleet.servers]

    def quiesce(self, settle_s=0.25, timeout=10.0):
        """Server stats and scrapes once every request count has held still
        for `settle_s`: requests a window abandoned are still served after
        its connections closed, and a process stalled for a moment must not
        pass for an idle one."""
        deadline = time.monotonic() + timeout
        last, since = None, time.monotonic()
        while True:
            stats, scrapes = self.server_stats(), self.scrapes()
            counts = [s["cmd_get"] + s["cmd_set"] for s in stats]
            if self.fleet.proxy is not None:
                counts.append(scrape.counter(scrapes["proxy"], "proxy_requests"))
            now = time.monotonic()
            if counts != last:
                last, since = counts, now
            if now - since >= settle_s or now > deadline:
                return stats, scrapes
            time.sleep(0.05)

    def scrapes(self):
        with self.tracer.span("scrape", "metrics"):
            return {p.name: scrape.parse_prometheus(
                scrape.http_metrics(p.metrics_port)) for p in self.fleet.procs}

    def proc_samples(self):
        with self.tracer.span("procfs", "sample"):
            out = {p.name: procfs.sample(p.pid) for p in self.fleet.procs}
            out["driver"] = procfs.sample(self.driver.pid)
            return out

    # --- phases ---------------------------------------------------------------

    def setup(self):
        """Spawn -> ready -> prefill, several times; the last fleet stays."""
        times = []
        for i in range(self.plan.setups):
            last = i + 1 == self.plan.setups
            # Only the fleet that stays dumps flight-recorder spans.
            spans_dir = self.out_dir if self.trace and last else None
            with self.tracer.span("setup", f"setup{i}"):
                t0 = time.monotonic()
                fl = fleet.Fleet(self.bins, self.w, spans_dir)
                try:
                    fl.start()
                    self.driver.call(f"prefill port={fl.entry.port} "
                                     f"{self.w.stream_args(self.seed)}",
                                     timeout=120)
                except BaseException:
                    fl.stop()
                    raise
                times.append(time.monotonic() - t0)
            if last:
                self.fleet = fl
                self.fleet_t0 = t0
            else:
                fl.stop()
        self.values["setup_s"] = median(times)
        self.details["setup_s"] = times
        for s in self.fleet.servers:
            self.stat_clients[s.name] = scrape.StatsClient(s.port)

    def calibrate_generator(self):
        """The generator's ceiling in the paced regime the ladder runs in.

        The candidates are `light`, `heavy` and the ladder's rates, plus one
        step above the top rung. Each is offered to a fresh, empty server on
        the serving cores in the rungs' own windows (count and length) and
        judged by the ladder's tests with the guard off; a rate that fails
        is measured once more, so a host stall alone does not fail it. Misses
        are the cheapest reply a server has, so a rate that fails here is one
        the generator cannot offer on time even to the cheapest peer. The
        ceiling is the highest candidate that passes (the top one is tried
        first, then bisection); when the top one passes, the ceiling is a
        lower bound, and when none passes it is 0 and every rung counts as
        generator-bound. The driver spins while it waits, so its /proc CPU
        share reads ~100% at any rate and cannot show this.
        """
        p = self.plan
        rates = [self.w.light, self.w.heavy] + ladder.rung_rates(
            self.w.heavy, workloads.LADDER_STEP, workloads.LADDER_RUNGS + 1)
        stream = f"keys={self.w.keys} theta=0 get=1 vmin=100 vmax=100"
        probes = {}

        def passes(rate):
            for _ in range(2):
                ws = [self.driver.call(f"window port={cal.port} rate={rate} "
                                       f"dur={p.rung_window_s:.4f} probe=0 "
                                       f"{stream} seed={self.next_seed()}")
                      for _ in range(p.rung_windows)]
                rung = ladder.judge(self.rung(rate, ws, generator_busy=0.0))
                probes.setdefault(rate, []).append(
                    {"p99_us": rung.p99_us, "reason": rung.reason})
                if rung.passed:
                    return True
            return False

        with self.tracer.span("loadgen", "calibrate"):
            cal = fleet.Proc("calibration", [self.bins["server"], "--port=0"],
                             fleet.cpu_plan(self.w.topology)["server0"],
                             want_metrics=False).wait_ready()
            try:
                self.ceiling_rps = ladder.highest_passing(rates, passes)
            finally:
                cal.stop()
        self.values["loadgen.ceiling_rps"] = self.ceiling_rps
        self.details["generator_calibration"] = probes

    def generator_busy(self, rate):
        """Offered rate over the paced ceiling."""
        return rate / self.ceiling_rps if self.ceiling_rps else float("inf")

    def warmup(self):
        p = self.plan
        if not self.w.evicts:
            self.window(self.w.light, p.warmup_s / 2, "warmup")
            self.window(self.w.heavy, p.warmup_s / 2, "warmup")
            return
        # Evicting store: warm until evictions per set level off.
        history = []
        deadline = time.monotonic() + 2.5 * p.warmup_s
        before = self.server_stats()[0]
        while True:
            self.window(self.w.heavy, 0.5, "warmup")
            after = self.server_stats()[0]
            sets = after["cmd_set"] - before["cmd_set"]
            history.append((after["evictions"] - before["evictions"]) /
                           max(sets, 1))
            before = after
            if len(history) >= 2 and abs(history[-1] - history[-2]) <= \
                    0.05 * max(history[-1], 1e-3):
                break
            if time.monotonic() > deadline:
                break
        self.details["warmup_evictions_per_set"] = history

    def fixed_phases(self):
        """`light` and `heavy` windows, interleaved so that both phases
        sample the host over the same stretch of time. With tracing on,
        /proc and the scrapes are read around every other heavy window; the
        heavy windows without them are the untraced side of
        trace.overhead_pct. Each heavy window's peak RSS is read on its own
        (VmHWM reset before it)."""
        p = self.plan
        ws = {"light": [], "heavy": []}
        for i in range(p.sub_windows):
            for phase in ws:
                heavy = phase == "heavy"
                sample = self.trace and heavy and i % 2 == 0
                if heavy:
                    for proc in self.fleet.procs:
                        procfs.reset_peak_rss(proc.pid)
                before = self.layer_samples() if sample else None
                ws[phase].append(self.window(getattr(self.w, phase),
                                             p.sub_window_s, phase))
                if sample:
                    self.heavy_samples.append((before, self.layer_samples()))
                if heavy:
                    self.heavy_peaks.append({proc.name: procfs.peak_rss_kb(proc.pid)
                                             for proc in self.fleet.procs})
        for phase, pw in ws.items():
            self.values[f"p50_us.{phase}"] = median([w["p50_us"] for w in pw])
            self.values[f"p99_us.{phase}"] = median([w["p99_us"] for w in pw])
            self.details[f"{phase}_samples"] = sum(w["count"] for w in pw)
        if self.trace:
            traced = median([w["p50_us"] for w in ws["heavy"][0::2]])
            quiet = median([w["p50_us"] for w in ws["heavy"][1::2]])
            self.values["trace.overhead_pct"] = (traced - quiet) / quiet * 100
        return ws["light"], ws["heavy"]

    def layer_samples(self):
        return self.proc_samples(), self.scrapes()

    def rung(self, rate, ws, generator_busy=None):
        scheduled = sum(w["scheduled"] for w in ws)
        return ladder.Rung(
            rate=rate, p99_us=median([w["p99_us"] for w in ws]),
            achieved_frac=sum(w["completed"] for w in ws) / max(scheduled, 1),
            failures=sum(w["errors"] + w["abandoned"] + w["failed_conns"]
                         for w in ws),
            generator_busy=(self.generator_busy(rate) if generator_busy is None
                            else generator_busy))

    def run_ladder(self, light_ws, heavy_ws):
        p = self.plan
        windows = {}
        driver_busy = {}

        def measure(rate):
            ws = windows.setdefault(rate, [])
            before = procfs.sample(self.driver.pid)
            ws += [self.window(rate, p.rung_window_s, "rung")
                   for _ in range(p.rung_windows)]
            driver_busy.setdefault(rate, []).append(procfs.delta(
                [(before, procfs.sample(self.driver.pid))]).cpu_busy)
            return self.rung(rate, ws)

        rates = ladder.rung_rates(self.w.heavy, workloads.LADDER_STEP,
                                  workloads.LADDER_RUNGS)
        floors = [self.rung(self.w.light, light_ws),
                  self.rung(self.w.heavy, heavy_ws)]
        result = ladder.search(floors, rates, measure)
        self.values["max_rps_slo1ms"] = result.max_rps
        self.details["ladder"] = {
            "rungs": [dict(vars(r), loadgen_cpu_busy=driver_busy.get(r.rate))
                      for r in result.rungs],
            "generator_bound": result.generator_bound,
            "capped": result.capped}
        return result

    def audit(self):
        with self.tracer.span("audit", "values"):
            a = self.driver.call(f"audit port={self.fleet.entry.port} "
                                 f"n={AUDIT_KEYS} "
                                 f"{self.w.stream_args(self.seed)}")
        self.details["audit"] = a
        self.checks["audit_values"] = a["bad"] == 0
        if not self.w.evicts:
            # Nothing evicts here: every prefilled key must still be served.
            self.checks["audit_all_found"] = a["found"] == a["checked"]

    def layers(self, heavy_ws):
        """Replays each layer's public functions on this workload's ops."""
        servers = [s.port for s in self.fleet.servers]
        conn_shards = next((w["conn_shards"] for w in heavy_ws
                            if w.get("conn_shards")), [])
        spans_path = os.path.join(self.out_dir, self.tag + "-replay.jsonl")
        argv = [self.bins["driver"], "layers",
                *self.w.stream_args(self.seed).split(),
                f"capacity_mb={self.w.capacity_mb}", f"shards={self.w.shards}",
                f"conn_shards={','.join(map(str, conn_shards))}",
                f"upstreams={','.join(map(str, servers))}",
                f"direct={servers[0]}", f"spans={spans_path}"]
        if self.fleet.proxy is not None:
            argv.append(f"proxy={self.fleet.proxy.port}")
        with self.tracer.span("replay", "layers"):
            out = subprocess.run(argv, capture_output=True, text=True,
                                 timeout=150, check=True)
        replay = json.loads(out.stdout.strip().splitlines()[-1])
        self.tracer.extend_jsonl(spans_path)
        self.details["replay"] = replay
        for name, _, _ in metrics.PER_LAYER:
            if name in replay:
                self.values[name] = replay[name]
        self.checks["replay_absorbed_failures"] = \
            replay.get("proxy.absorbed_failures.replay", 0) == 0
        untraced = replay["replay.untraced_ms"]
        self.values["trace.replay_overhead_pct"] = (
            replay["replay.traced_ms"] - untraced) / untraced * 100

    # --- the run --------------------------------------------------------------

    def run(self):
        self.driver = fleet.Driver(
            self.bins["driver"], fleet.cpu_plan(self.w.topology)["driver"])
        with self.tracer.span("bench", "run"):
            self.setup()
            self.calibrate_generator()
            self.warmup()
            stats0, scrape0 = self.quiesce()
            light_ws, heavy_ws = self.fixed_phases()
            if self.trace:
                for p in self.fleet.procs:
                    p.signal(signal.SIGUSR1)  # flight-recorder dump
            result = self.run_ladder(light_ws, heavy_ws)
            stats1, scrape1 = self.quiesce()
            self.audit()
            if self.trace:
                self.layers(heavy_ws)
        measured = [w for w in self.windows if w["phase"] != "warmup"]
        self.reconcile(measured, stats0, stats1, scrape0, scrape1)
        self.end_to_end(light_ws + heavy_ws)
        if self.trace:
            self.per_layer(heavy_ws, stats0, stats1, result)
            self.server_spans(heavy_ws)
            self.span_self_times()
        self.fleet.stop()
        self.fleet = None
        counted = light_ws + heavy_ws + [
            w for w in self.windows if w["phase"] == "rung" and
            w["rate"] <= self.values["max_rps_slo1ms"]]
        attempted = sum(w["scheduled"] for w in counted)
        failed = sum(w["errors"] + w["abandoned"] for w in counted)
        self.values["fail_frac"] = failed / max(attempted, 1)
        return attempted, failed

    def reconcile(self, measured, stats0, stats1, scrape0, scrape1):
        """Loadgen completions must match what the serving side counted."""
        completed = sum(w["completed"] for w in measured)
        lost = sum(w["abandoned"] for w in measured)
        served = sum(s1["cmd_get"] + s1["cmd_set"] - s0["cmd_get"] - s0["cmd_set"]
                     for s0, s1 in zip(stats0, stats1))
        self.checks["servers_count_every_op"] = \
            completed <= served <= completed + lost
        self.checks["no_protocol_errors"] = all(
            s["protocol_errors"] == 0 for s in stats1)
        self.checks["no_error_replies"] = all(
            w["errors"] == 0 and w["failed_conns"] == 0 for w in measured
            if w["phase"] in ("light", "heavy"))
        self.details["reconcile"] = {"completed": completed, "lost": lost,
                                     "served": served}
        if self.fleet.proxy is not None:
            p0, p1 = scrape0["proxy"], scrape1["proxy"]
            proxied = (scrape.counter(p1, "proxy_requests") -
                       scrape.counter(p0, "proxy_requests"))
            self.details["reconcile"]["proxied"] = proxied
            self.checks["proxy_counts_every_op"] = \
                completed <= proxied <= completed + lost
            self.checks["proxy_no_absorbed_failures"] = \
                scrape.counter(p1, "proxy_absorbed_failures") == 0
            self.checks["proxy_no_protocol_errors"] = \
                scrape.counter(p1, "proxy_protocol_errors") == 0
        if self.w.shards > 1:
            spreads = [max(w["shard_conns"]) - min(w["shard_conns"])
                       for w in measured]
            self.checks["even_shard_placement"] = all(
                len(w["shard_conns"]) == self.w.shards for w in measured) and \
                max(spreads) == 0

    def peak_rss_kb(self, names):
        """Median over the heavy windows of the summed peak RSS of `names`.

        A host stall in a window backs requests up into the servers' buffers
        and lifts that window's peak; the median leaves such windows out.
        """
        return median([sum(peaks[n] for n in names)
                       for peaks in self.heavy_peaks])

    def end_to_end(self, fixed_ws):
        """hit ratio over the fixed-rate windows; peak RSS in the heavy ones
        (the ladder's overload rungs buffer replies and would dominate it)."""
        gets = sum(w["gets"] for w in fixed_ws)
        self.values["hit_ratio"] = sum(w["get_hits"] for w in fixed_ws) / max(gets, 1)
        self.values["rss_mb"] = self.peak_rss_kb(
            [p.name for p in self.fleet.procs]) / 1024.0
        self.details["heavy_peak_rss_kb"] = self.heavy_peaks

    def per_layer(self, heavy_ws, stats0, stats1, ladder_result):
        """Layer figures over the sampled heavy windows (scrape and /proc
        deltas around each one), plus counters over all measured windows."""
        v = self.values
        reqs = max(sum(w["completed"] for w in heavy_ws[0::2]), 1)
        procs = [(a[0], b[0]) for a, b in self.heavy_samples]
        scrapes = [(a[1], b[1]) for a, b in self.heavy_samples]
        servers = [s.name for s in self.fleet.servers]
        server_deltas = [procfs.delta([(a[n], b[n]) for a, b in procs])
                         for n in servers]
        wall = server_deltas[0].wall_s
        v["net.cpu_busy"] = sum(d.cpu_s for d in server_deltas) / wall
        v["net.reactor_cpu_busy.max"] = max(d.max_thread_busy
                                            for d in server_deltas)
        v["net.csw_per_req"] = sum(d.csw for d in server_deltas) / reqs
        for name, metric, q in (("net.loop_work_us.p50", "net_loop_work_s", 0.5),
                                ("net.loop_work_us.p99", "net_loop_work_s", 0.99),
                                ("net.loop_wait_us.p50", "net_loop_wait_s", 0.5),
                                ("net.server_latency_us.p50",
                                 "net_request_latency_s", 0.5),
                                ("net.server_latency_us.p99",
                                 "net_request_latency_s", 0.99)):
            v[name] = window_quantile_us(scrapes, servers, metric, q)
        sets = sum(s1["cmd_set"] - s0["cmd_set"] for s0, s1 in zip(stats0, stats1))
        evictions = sum(s1["evictions"] - s0["evictions"]
                        for s0, s1 in zip(stats0, stats1))
        v["net.evictions_per_set"] = evictions / max(sets, 1)
        v["net.rss_per_capacity"] = (
            self.peak_rss_kb(servers) * 1024.0 /
            sum(s["limit_maxbytes"] for s in stats1))
        v["loadgen.cpu_busy"] = procfs.delta(
            [(a["driver"], b["driver"]) for a, b in procs]).cpu_busy
        v["loadgen.capacity_used"] = (self.generator_busy(v["max_rps_slo1ms"])
                                      if v["max_rps_slo1ms"] else 0.0)
        spreads = [max(w["shard_conns"]) - min(w["shard_conns"])
                   for w in self.windows if w.get("shard_conns")]
        v["shard.conn_spread"] = max(spreads) if spreads else 0
        if self.fleet.proxy is not None:
            pd = procfs.delta([(a["proxy"], b["proxy"]) for a, b in procs])
            v["proxy.cpu_busy"] = pd.cpu_busy
            v["proxy.vcsw_per_req"] = pd.vcsw / reqs
            for name, q in (("proxy.loop_work_us.p50", 0.5),
                            ("proxy.loop_work_us.p99", 0.99)):
                v[name] = window_quantile_us(scrapes, ["proxy"],
                                             "net_loop_work_s", q)
            end = scrape.parse_prometheus(
                scrape.http_metrics(self.fleet.proxy.metrics_port))
            v["proxy.absorbed_failures"] = scrape.counter(
                end, "proxy_absorbed_failures")
            v["proxy.reconnects"] = scrape.counter(end, "proxy_reconnects")
        self.details["ladder"]["max_generator_busy"] = max(
            [r.generator_busy for r in ladder_result.rungs], default=0.0)

    def server_spans(self, heavy_ws):
        """Phase means of the processes' own sampled spans in heavy windows.

        Each process dumped its flight-recorder ring on SIGUSR1 right after
        the fixed-rate windows (slow-request captures may append more dumps, so
        records are de-duplicated). Span times count from the process's loop
        start, which is within milliseconds of its spawn.
        """
        spans_of_heavy = [((w["t0"] - self.fleet_t0) * 1e6,
                           (w["t1"] - self.fleet_t0) * 1e6) for w in heavy_ws]
        for who, prefix in (("server", "net"), ("proxy", "proxy")):
            lines = set()
            for p in self.fleet.procs:
                path = os.path.join(self.out_dir, p.name + ".jsonl")
                if p.name.startswith(who) and os.path.exists(path):
                    with open(path, encoding="utf-8") as f:
                        lines.update(line for line in f if line.strip())
                    os.remove(path)
            records = [r for r in map(json.loads, lines)
                       if r.get("full_span") and
                       any(lo <= r["t_us"] <= hi for lo, hi in spans_of_heavy)]
            for phase in ("queue", "store", "write"):
                vals = [r[f"{phase}_us"] for r in records]
                self.values[f"{prefix}.span_{phase}_us.mean"] = (
                    sum(vals) / len(vals) if vals else 0.0)
            self.details[f"{prefix}_spans"] = len(records)

    def span_self_times(self):
        path = os.path.join(self.out_dir, self.tag + "-spans.jsonl")
        self.tracer.write_jsonl(path)
        own = spans.self_times(self.tracer.spans)
        for layer in metrics.SPAN_LAYERS:
            self.values[f"span.self_ms.{layer}"] = own.get(layer, 0.0) * 1e3
        self.details["spans_file"] = path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an error, so the processes started get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    missing = [f for f in REQUIRED_SOURCES
               if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        print(f"perfbench: sources missing ({', '.join(missing)}); run from a "
              "full checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        bins = build(build_dir, os.path.join(out_dir, "build.log"))
    except subprocess.CalledProcessError:
        print(f"perfbench: build failed, see {out_dir}/build.log",
              file=sys.stderr)
        return 1

    w = workloads.WORKLOADS[args.workload]
    bench = Bench(w, bins, args.seed, args.seconds, bool(args.trace), out_dir)
    try:
        attempted, failed = bench.run()
    finally:
        bench.close()

    names = [m[0] for m in (metrics.PER_LAYER if args.trace
                            else metrics.END_TO_END)]
    for name in names:
        bench.values.setdefault(name, 0.0)  # layer absent on this workload
    correct = all(bench.checks.values())
    meta = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cores": os.cpu_count(),
            "build_type": BUILD_TYPE, "commit": source_commit(),
            "transport": "loopback 127.0.0.1, 4 connections",
            "kernel": platform.release()}
    record = {"meta": meta, "checks": bench.checks, "values": bench.values,
              "details": bench.details,
              "windows": bench.windows}
    with open(os.path.join(out_dir, bench.tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)

    print("# meta " + json.dumps(meta))
    print("# checks " + json.dumps(bench.checks))
    for name in names:
        print(f"{name:32s} {bench.values[name]:14.4f} {metrics.UNITS[name]}")
    for phase in ("light", "heavy"):
        print(f"# {phase}: medians of {bench.plan.sub_windows} windows, "
              f"{bench.details[phase + '_samples']} latency samples")
    print(json.dumps(metrics.result_line(correct, attempted, failed,
                                         bench.values, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
