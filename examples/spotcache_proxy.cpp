// spotcache_proxy: a standalone memcached-text-protocol proxy over src/net
// that fans requests out to the spot/burstable cache fleet.
//
//   spotcache_proxy --fleet=members.txt [--port=11311] [--host=127.0.0.1]
//   spotcache_proxy --node=0:127.0.0.1:11211 --node=1:127.0.0.1:11212
//                   --backup=127.0.0.1:11210
//
// The client side is the full src/net serving surface (epoll loop, zero-copy
// parser, writev assembly, metrics scrape, flight recorder); the execution
// step is a ProxyCore that homes each key on the fleet's consistent-hash
// ring and rides the breaker-gated degradation ladder (primary -> backup ->
// miss) so upstream churn never surfaces to the client as a connection
// error. Upstream sockets live in the same epoll loop: requests are
// pipelined per upstream (a client batch leaves in one send per upstream,
// with no cap on commands in flight) and answered in each client's request
// order, and a stalled upstream delays only the requests whose keys it owns.
//
// Readiness: the first stdout line is `listening <port>` (flushed once the
// socket is bound); with --metrics-port the second line is
// `metrics listening <port>` — the same contract as spotcache_server, so
// ProcessSupervisor treats both binaries identically.
//
// Flags:
//   --fleet=FILE       fleet membership file (see src/proxy/membership.h);
//                      loaded at startup, re-read on SIGHUP
//   --node=S:H:P       add ring slot S at host H port P (repeatable; a
//                      static alternative to --fleet, checked like it)
//   --backup=H:P       the off-ring backup node (read/write fallback; with
//                      --node only)
//   --port=N           listen port (0 picks an ephemeral port, printed)
//   --host=H           bind address
//   --timeout-ms=N     per-leg deadline: an upstream command unanswered
//                      this long after it was sent fails its upstream
//                      (default 250)
//   --trace=FILE       on shutdown, write the JSONL event stream
//   --metrics=FILE     on shutdown, write the live scrape's Prometheus text
//   --metrics-port=N   serve live Prometheus text over HTTP on port N
//   --spans=FILE       flight-recorder dump target (SIGUSR1 / slow-request)
//   --span-sample=N    span-sample every ~Nth request (default 256)
//   --latency-sample=N latency-sample every ~Nth request (default 16)
//   --slow-us=N        auto-capture threshold in microseconds
//   --stall-us=N       event-loop stall threshold in microseconds
//   --span-ring=N      flight-recorder capacity in spans
//   --pidfile=FILE     write pid after a successful bind
//
// Numeric flags are parsed strictly: a value that is not a whole number, or
// is out of range (ports above 65535, a timeout below 1), is a bad flag
// (exit 2).
//
// Signals: SIGINT/SIGTERM stop cleanly. SIGHUP re-reads --fleet from loop
// context (generation + node count printed; a malformed file keeps the
// previous view). SIGUSR1 dumps the flight-recorder ring. All handlers are
// async-signal-safe (atomic flag + eventfd).

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/server.h"
#include "src/obs/exporters.h"
#include "src/obs/obs.h"
#include "src/proxy/membership.h"
#include "src/proxy/proxy_core.h"
#include "src/util/flags.h"

using namespace spotcache;

namespace {

// Exit codes a supervisor can branch on (same table as spotcache_server).
constexpr int kExitRunFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBindFailure = 3;

net::NetServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  if (g_server != nullptr) {
    g_server->Stop();  // eventfd write: async-signal-safe
  }
}

void HandleDumpSignal(int /*sig*/) {
  if (g_server != nullptr) {
    g_server->RequestTelemetryDump();
  }
}

void HandleReloadSignal(int /*sig*/) {
  if (g_server != nullptr) {
    g_server->RequestReload();  // atomic flag + eventfd write
  }
}

int Usage(int exit_code) {
  std::printf(
      "usage: spotcache_proxy [--fleet=FILE] [--node=SLOT:HOST:PORT]...\n"
      "                       [--backup=HOST:PORT] [--port=11311]\n"
      "                       [--host=127.0.0.1]\n"
      "                       [--timeout-ms=N] [--trace=FILE]\n"
      "                       [--metrics=FILE] [--metrics-port=N]\n"
      "                       [--spans=FILE] [--span-sample=N]\n"
      "                       [--latency-sample=N] [--slow-us=N]\n"
      "                       [--stall-us=N] [--span-ring=N]\n"
      "                       [--pidfile=FILE] [--help]\n"
      "\n"
      "Speaks memcached text to clients and fans out to the fleet named by\n"
      "--fleet, or by --node/--backup, over the breaker-gated consistent-hash\n"
      "ring. SIGHUP re-reads --fleet without dropping client connections.\n"
      "\n"
      "  --timeout-ms=N  per-leg deadline: an upstream command unanswered\n"
      "                  this long after it was sent fails its upstream\n"
      "                  (default 250). Every command is sent in the loop\n"
      "                  round it arrives in; there is no in-flight cap.\n"
      "\n"
      "Readiness contract: first stdout line is exactly `listening <port>`\n"
      "(after listen(2) succeeded); with --metrics-port the next line is\n"
      "`metrics listening <port>`.\n"
      "\n"
      "Numeric flags must be whole numbers in range.\n"
      "\n"
      "Exit codes: 0 clean, 1 loop failure, 2 bad flags, 3 bind failure.\n");
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  net::NetServerConfig config;
  config.port = 11311;
  proxy::ProxyCoreConfig proxy_config;
  std::string fleet_path;
  std::vector<std::string> node_specs;
  std::string backup_spec;
  std::string trace_path;
  std::string metrics_path;
  std::string pidfile_path;

  constexpr int64_t kMaxInt = 1 << 30;
  constexpr int64_t kMaxMs = 86'400'000;  // one day
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t n = 0;
    bool ok = true;
    if (arg.rfind("--port=", 0) == 0) {
      ok = ParseInt(arg.substr(7), 0, 65535, &n);
      config.port = static_cast<uint16_t>(n);
    } else if (arg.rfind("--host=", 0) == 0) {
      config.bind_host = arg.substr(7);
    } else if (arg.rfind("--fleet=", 0) == 0) {
      fleet_path = arg.substr(8);
    } else if (arg.rfind("--node=", 0) == 0) {
      node_specs.push_back(arg.substr(7));
    } else if (arg.rfind("--backup=", 0) == 0) {
      backup_spec = arg.substr(9);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      ok = ParseInt(arg.substr(13), 1, kMaxMs, &n);
      proxy_config.upstreams.op_timeout_ms = static_cast<int>(n);
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
  const bool static_fleet = !node_specs.empty() || !backup_spec.empty();
  if (fleet_path.empty() == node_specs.empty() ||
      (!fleet_path.empty() && static_fleet)) {
    std::printf("need either --fleet=FILE or at least one "
                "--node=SLOT:HOST:PORT (with an optional --backup)\n\n");
    return Usage(kExitUsage);
  }
  config.metrics_dump_path = metrics_path;

  // Both sources go through the membership document's own checks.
  std::string error;
  const auto membership =
      static_fleet ? proxy::MembershipFromSpecs(node_specs, backup_spec, &error)
                   : proxy::LoadMembership(fleet_path, &error);
  if (!membership.has_value()) {
    std::printf("bad %s: %s\n\n",
                static_fleet ? "--node/--backup" : fleet_path.c_str(),
                error.c_str());
    return Usage(kExitUsage);
  }

  Obs obs;
  obs.tracer.set_enabled(!trace_path.empty());

  proxy::ProxyCore proxy_core(proxy_config, &obs, &obs.tracer);
  proxy_core.pool().ApplyMembership(*membership);

  net::NetServer server(config, &obs);
  server.SetHandler(&proxy_core);
  if (!fleet_path.empty()) {
    server.SetReloadHandler([&proxy_core, &fleet_path] {
      if (proxy_core.ReloadMembership(fleet_path)) {
        std::printf("fleet reloaded: generation %llu, %zu nodes%s\n",
                    static_cast<unsigned long long>(
                        proxy_core.pool().generation()),
                    proxy_core.pool().node_count(),
                    proxy_core.pool().has_backup() ? " + backup" : "");
      } else {
        std::printf("fleet reload failed; keeping previous membership\n");
      }
      std::fflush(stdout);
    });
  }
  if (!server.Start()) {
    std::fprintf(stderr, "spotcache_proxy: failed to bind %s:%u\n",
                 config.bind_host.c_str(), config.port);
    return kExitBindFailure;
  }
  g_server = &server;
  if (!pidfile_path.empty() &&
      !WriteStringToFile(pidfile_path, std::to_string(::getpid()) + "\n")) {
    std::fprintf(stderr, "spotcache_proxy: could not write pidfile %s\n",
                 pidfile_path.c_str());
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  std::signal(SIGHUP, HandleReloadSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Readiness contract: identical to spotcache_server, so harnesses and the
  // ProcessSupervisor drive both binaries with the same parser.
  std::printf("listening %u\n", server.port());
  if (config.metrics_port >= 0) {
    std::printf("metrics listening %u\n", server.metrics_port());
  }
  std::printf("spotcache_proxy listening on %s:%u (%zu nodes%s, "
              "timeout %d ms)\n",
              config.bind_host.c_str(), server.port(),
              proxy_core.pool().node_count(),
              proxy_core.pool().has_backup() ? " + backup" : "",
              proxy_config.upstreams.op_timeout_ms);
  std::fflush(stdout);

  const bool ok = server.Run();
  g_server = nullptr;

  if (!trace_path.empty() &&
      WriteStringToFile(trace_path, ToJsonl(obs.tracer))) {
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty() &&
      WriteStringToFile(metrics_path, server.RenderMetrics())) {
    std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
  }
  if (!config.span_dump_path.empty() && server.telemetry() != nullptr &&
      WriteStringToFile(config.span_dump_path,
                        server.telemetry()->RenderFlightRecorderJsonl())) {
    std::printf("flight recorder (%zu spans) written to %s\n",
                server.telemetry()->ring_size(),
                config.span_dump_path.c_str());
  }

  const proxy::ProxyStats stats = proxy_core.stats();
  const proxy::UpstreamPoolStats pool = proxy_core.pool().stats();
  std::printf(
      "proxied: %llu requests, %llu get keys (%llu hits, %llu backup, "
      "%llu misses, %llu sheds), %llu sets (%llu failed), "
      "%llu absorbed failures, %llu reconnects, %llu reloads\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.get_keys),
      static_cast<unsigned long long>(stats.get_hits),
      static_cast<unsigned long long>(stats.backup_hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.sheds),
      static_cast<unsigned long long>(stats.sets),
      static_cast<unsigned long long>(stats.set_failures),
      static_cast<unsigned long long>(pool.absorbed_failures),
      static_cast<unsigned long long>(pool.reconnects),
      static_cast<unsigned long long>(stats.reloads));
  if (!pidfile_path.empty()) {
    ::unlink(pidfile_path.c_str());
  }
  return ok ? 0 : kExitRunFailure;
}
