// spotcache_server: a real memcached-text-protocol server over src/net.
//
//   spotcache_server [--port=11211] [--host=127.0.0.1] [--capacity-mb=64]
//                    [--threads=N] [--pin] [--force-dispatch] [--trace=F]
//                    [--metrics=F] [--metrics-port=N] [--spans=F]
//                    [--span-sample=N] [--latency-sample=N] [--slow-us=N]
//                    [--stall-us=N] [--span-ring=N]
//
//   $ ./spotcache_server --port=11211 &
//   $ printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc 127.0.0.1 11211
//   $ memtier_benchmark -p 11211 -P memcache_text
//
// This is one cache node: it stores and serves bytes. Failover, backup
// fallback and degradation live in the proxy tier (spotcache_proxy) in front
// of a fleet of these servers.
//
// Readiness: the first stdout line is `listening <port>` (flushed once the
// socket is bound), so harnesses can use --port=0 and scrape the bound port
// instead of racing listen(2) with retry loops. With --metrics-port the
// second line is `metrics listening <port>`.
//
// Flags:
//   --port=N           listen port (0 picks an ephemeral port, printed)
//   --host=H           bind address
//   --capacity-mb=N    item-store LRU capacity (total; split across shards)
//   --threads=N        reactor shards, 1..64 (default 1 = the classic
//                      single-threaded server, byte-identical wire behavior;
//                      N > 1 shards the key space across N epoll loops)
//   --pin              pin shard i to cpu (i % cores)
//   --force-dispatch   use the accept-and-handoff fallback instead of
//                      SO_REUSEPORT (testing / kernels without REUSEPORT)
//   --trace=FILE       on shutdown, write the JSONL event stream (conn and
//                      request_span events; enables live tracing)
//   --metrics=FILE     on shutdown, write a Prometheus-style net/* snapshot
//   --metrics-port=N   serve live Prometheus text over HTTP on port N
//                      (0 = ephemeral; off by default)
//   --spans=FILE       flight-recorder dump target (JSONL, appended on
//                      SIGUSR1/SIGHUP or slow-request auto-capture; the full
//                      ring is also dumped once at shutdown)
//   --span-sample=N    span-sample every ~Nth request (default 256, 0 = off)
//   --latency-sample=N latency-sample every ~Nth request (default 16)
//   --slow-us=N        auto-capture threshold in microseconds (default 50000)
//   --stall-us=N       event-loop stall threshold in microseconds
//   --span-ring=N      flight-recorder capacity in spans (default 4096)
//
// Numeric flags are parsed strictly: a value that is not a whole number, or
// is out of range (ports above 65535, --threads outside 1..64, a capacity
// below 1 MB), is a bad flag (exit 2).
//
// Signals: SIGINT/SIGTERM stop the loop cleanly (obs artifacts written, a
// final stats line printed). SIGUSR1/SIGHUP dump the flight-recorder ring to
// --spans and a live metrics snapshot to --metrics without stopping — both
// handlers are async-signal-safe (atomic flag + eventfd; the dump itself
// runs on the loop thread).

#include <malloc.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/net/sharded_server.h"
#include "src/obs/exporters.h"
#include "src/obs/obs.h"
#include "src/util/flags.h"

using namespace spotcache;

namespace {

// Exit codes a supervisor can branch on: bind failure ("port taken") is not
// the same failure as a crash or a dirty event-loop exit.
constexpr int kExitRunFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBindFailure = 3;

net::ShardedServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  if (g_server != nullptr) {
    g_server->Stop();  // eventfd write per shard: async-signal-safe
  }
}

void HandleDumpSignal(int /*sig*/) {
  if (g_server != nullptr) {
    g_server->RequestTelemetryDump();  // atomic flag + eventfd write
  }
}

int Usage(int exit_code) {
  std::printf(
      "usage: spotcache_server [--port=11211] [--host=127.0.0.1]\n"
      "                        [--capacity-mb=64] [--threads=N] [--pin]\n"
      "                        [--force-dispatch] [--trace=FILE]\n"
      "                        [--metrics=FILE] [--metrics-port=N]\n"
      "                        [--spans=FILE] [--span-sample=N]\n"
      "                        [--latency-sample=N] [--slow-us=N]\n"
      "                        [--stall-us=N] [--span-ring=N]\n"
      "                        [--pidfile=FILE] [--help]\n"
      "\n"
      "Readiness contract (for supervisors and harnesses):\n"
      "  The first stdout line is exactly `listening <port>`, flushed only\n"
      "  after listen(2) succeeded — start with --port=0 and read the bound\n"
      "  port from it instead of racing the bind. With --metrics-port the\n"
      "  next line is `metrics listening <port>`. Human-readable banner\n"
      "  lines follow; anything machine-parsed comes first.\n"
      "\n"
      "  --pidfile=FILE writes the server pid after a successful bind (at\n"
      "  the same instant the readiness line is printed) and removes the\n"
      "  file on clean shutdown.\n"
      "\n"
      "  This is one cache node; failover and degradation live in the proxy\n"
      "  tier (spotcache_proxy). Numeric flags must be whole numbers in\n"
      "  range (--threads 1..64).\n"
      "\n"
      "Exit codes:\n"
      "  0  clean shutdown (SIGINT/SIGTERM/quit)\n"
      "  1  event loop failed after a successful bind\n"
      "  2  bad flags\n"
      "  3  bind failure (address/port taken or not bindable) — distinct so\n"
      "     a supervisor can tell \"port taken\" from \"crashed\"\n");
  return exit_code;
}

/// Writes the pid to `path` (best-effort; a failure is a warning, not fatal).
void WritePidFile(const std::string& path) {
  if (path.empty()) {
    return;
  }
  if (!WriteStringToFile(path, std::to_string(::getpid()) + "\n")) {
    std::fprintf(stderr, "spotcache_server: could not write pidfile %s\n",
                 path.c_str());
  }
}

void RemovePidFile(const std::string& path) {
  if (!path.empty()) {
    ::unlink(path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its documented default (128 KiB). Setting
  // it turns off the dynamic threshold, which otherwise rises (and doubles
  // the trim threshold) each time a large mmapped block such as an outgrown
  // store arena is freed. With it fixed, big arrays always come from mmap
  // and are unmapped when freed, and free memory at the top of the heap is
  // trimmed, so RSS follows the store down after a shrink.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  net::ShardedServerConfig scfg;
  net::NetServerConfig& config = scfg.base;
  config.port = 11211;
  std::string trace_path;
  std::string metrics_path;
  std::string pidfile_path;

  constexpr int64_t kMaxInt = 1 << 30;
  constexpr int64_t kMaxCapacityMb = 1 << 24;  // 16 TiB
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t n = 0;
    bool ok = true;
    if (arg.rfind("--port=", 0) == 0) {
      ok = ParseInt(arg.substr(7), 0, 65535, &n);
      config.port = static_cast<uint16_t>(n);
    } else if (arg.rfind("--host=", 0) == 0) {
      config.bind_host = arg.substr(7);
    } else if (arg.rfind("--capacity-mb=", 0) == 0) {
      ok = ParseInt(arg.substr(14), 1, kMaxCapacityMb, &n);
      scfg.capacity_bytes = static_cast<size_t>(n) * 1024 * 1024;
    } else if (arg.rfind("--threads=", 0) == 0) {
      ok = ParseInt(arg.substr(10), 1, net::kMaxShards, &n);
      scfg.threads = static_cast<uint32_t>(n);
    } else if (arg == "--pin") {
      scfg.pin_threads = true;
    } else if (arg == "--force-dispatch") {
      scfg.force_dispatch = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      ok = ParseInt(arg.substr(15), 0, 65535, &n);
      config.metrics_port = static_cast<int>(n);
    } else if (arg.rfind("--spans=", 0) == 0) {
      config.span_dump_path = arg.substr(8);
    } else if (arg.rfind("--span-sample=", 0) == 0) {
      ok = ParseInt(arg.substr(14), 0, kMaxInt, &n);
      config.telemetry.span_sample_every = static_cast<uint32_t>(n);
    } else if (arg.rfind("--latency-sample=", 0) == 0) {
      ok = ParseInt(arg.substr(17), 0, kMaxInt, &n);
      config.telemetry.latency_sample_every = static_cast<uint32_t>(n);
    } else if (arg.rfind("--slow-us=", 0) == 0) {
      ok = ParseInt(arg.substr(10), INT64_MIN, INT64_MAX,
                    &config.telemetry.slow_request_us);
    } else if (arg.rfind("--stall-us=", 0) == 0) {
      ok = ParseInt(arg.substr(11), INT64_MIN, INT64_MAX,
                    &config.stall_threshold_us);
    } else if (arg.rfind("--span-ring=", 0) == 0) {
      ok = ParseInt(arg.substr(12), 1, kMaxInt, &n);
      config.telemetry.flight_ring_capacity = static_cast<uint32_t>(n);
    } else if (arg.rfind("--pidfile=", 0) == 0) {
      pidfile_path = arg.substr(10);
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else {
      std::printf("unknown flag '%s'\n\n", arg.c_str());
      return Usage(kExitUsage);
    }
    if (!ok) {
      std::printf("bad value in '%s'\n\n", arg.c_str());
      return Usage(kExitUsage);
    }
  }
  // Signal-driven dumps write the live metrics snapshot to the same file the
  // shutdown snapshot uses.
  config.metrics_dump_path = metrics_path;

  // Only lends its tracer enablement to the shards. Live tracing costs
  // memory per event; only keep the tracer on when the stream will actually
  // be written somewhere.
  Obs obs;
  obs.tracer.set_enabled(!trace_path.empty());

  // --threads=1 runs one reactor on this thread; N > 1 runs N reactor
  // shards behind one port. Flags and readiness lines are the same.
  net::ShardedServer server(scfg, &obs);
  if (!server.Start()) {
    std::fprintf(stderr, "spotcache_server: failed to bind %s:%u\n",
                 config.bind_host.c_str(), config.port);
    return kExitBindFailure;
  }
  g_server = &server;
  WritePidFile(pidfile_path);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  std::signal(SIGHUP, HandleDumpSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Readiness signal for harnesses: the first stdout line is exactly
  // "listening <port>", flushed after listen(2) succeeded — so a script can
  // start the server with --port=0, read the bound port from this line, and
  // never race the bind. `metrics listening <port>` follows when the scrape
  // endpoint is on, then the human-readable banner.
  std::printf("listening %u\n", server.port());
  if (config.metrics_port >= 0) {
    std::printf("metrics listening %u\n", server.metrics_port());
  }
  const uint32_t shards = server.shard_count();
  if (shards == 1) {
    std::printf("spotcache_server listening on %s:%u (capacity %zu MB)\n",
                config.bind_host.c_str(), server.port(),
                scfg.capacity_bytes / (1024 * 1024));
  } else {
    std::printf(
        "spotcache_server listening on %s:%u (capacity %zu MB, %u shards "
        "via %s)\n",
        config.bind_host.c_str(), server.port(),
        scfg.capacity_bytes / (1024 * 1024), shards,
        server.using_reuseport() ? "SO_REUSEPORT" : "dispatch");
  }
  std::fflush(stdout);

  const bool ok = server.Run();
  g_server = nullptr;

  if (!trace_path.empty()) {
    // Conn/request events land in the per-shard tracers (each ring is
    // private to its reactor thread): concatenate them into one stream.
    std::string trace;
    for (uint32_t i = 0; i < shards; ++i) {
      trace += ToJsonl(server.shard_obs(i).tracer);
    }
    if (WriteStringToFile(trace_path, trace)) {
      std::printf("trace written to %s\n", trace_path.c_str());
    }
  }
  if (!metrics_path.empty() &&
      WriteStringToFile(metrics_path, server.shard(0).RenderMetrics())) {
    std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
  }
  if (!config.span_dump_path.empty()) {
    std::string spans;
    size_t span_count = 0;
    for (uint32_t i = 0; i < shards; ++i) {
      if (RequestTelemetry* t = server.shard(i).telemetry()) {
        spans += t->RenderFlightRecorderJsonl();
        span_count += t->ring_size();
      }
    }
    if (WriteStringToFile(config.span_dump_path, spans)) {
      std::printf("flight recorder (%zu spans) written to %s\n", span_count,
                  config.span_dump_path.c_str());
    }
  }

  const net::CoreSnapshot total = server.TotalSnapshot();
  std::printf(
      "served: %llu gets (%llu hits, %llu misses), %llu sets, "
      "%llu protocol errors\n",
      static_cast<unsigned long long>(total.cmd_get),
      static_cast<unsigned long long>(total.get_hits),
      static_cast<unsigned long long>(total.get_misses),
      static_cast<unsigned long long>(total.cmd_set),
      static_cast<unsigned long long>(total.protocol_errors));
  RemovePidFile(pidfile_path);
  return ok ? 0 : kExitRunFailure;
}
