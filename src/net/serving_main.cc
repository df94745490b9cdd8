#include "src/net/serving_main.h"

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <utility>

#include "src/obs/exporters.h"
#include "src/util/flags.h"

namespace spotcache::net {

namespace {

ShardedServer* g_server = nullptr;
bool g_hup_reloads = false;

// Async-signal-safe: each request is an atomic flag plus an eventfd write.
void HandleSignal(int sig) {
  if (g_server == nullptr) {
    return;
  }
  if (sig == SIGINT || sig == SIGTERM) {
    g_server->Stop();
  } else if (sig == SIGHUP && g_hup_reloads) {
    g_server->shard(0).RequestReload();
  } else {
    g_server->RequestTelemetryDump();
  }
}

}  // namespace

std::optional<int> ServingMain::ParseFlags(
    int argc, char** argv,
    const std::function<bool(const std::string& arg, bool* ok)>& own_flag) {
  NetServerConfig& net = config_.base;
  constexpr int64_t kMaxInt = 1 << 30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t n = 0;
    bool ok = true;
    if (arg.rfind("--port=", 0) == 0) {
      ok = ParseInt(arg.substr(7), 0, 65535, &n);
      net.port = static_cast<uint16_t>(n);
    } else if (arg.rfind("--host=", 0) == 0) {
      net.bind_host = arg.substr(7);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path_ = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      net.metrics_dump_path = arg.substr(10);
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      ok = ParseInt(arg.substr(15), 0, 65535, &n);
      net.metrics_port = static_cast<int>(n);
    } else if (arg.rfind("--spans=", 0) == 0) {
      net.span_dump_path = arg.substr(8);
    } else if (arg.rfind("--span-sample=", 0) == 0) {
      ok = ParseInt(arg.substr(14), 0, kMaxInt, &n);
      net.telemetry.span_sample_every = static_cast<uint32_t>(n);
    } else if (arg.rfind("--latency-sample=", 0) == 0) {
      ok = ParseInt(arg.substr(17), 0, kMaxInt, &n);
      net.telemetry.latency_sample_every = static_cast<uint32_t>(n);
    } else if (arg.rfind("--slow-us=", 0) == 0) {
      ok = ParseInt(arg.substr(10), INT64_MIN, INT64_MAX,
                    &net.telemetry.slow_request_us);
    } else if (arg.rfind("--stall-us=", 0) == 0) {
      ok = ParseInt(arg.substr(11), INT64_MIN, INT64_MAX,
                    &net.stall_threshold_us);
    } else if (arg.rfind("--span-ring=", 0) == 0) {
      ok = ParseInt(arg.substr(12), 1, kMaxFlightRingCapacity, &n);
      net.telemetry.flight_ring_capacity = static_cast<uint32_t>(n);
    } else if (arg.rfind("--pidfile=", 0) == 0) {
      pidfile_path_ = arg.substr(10);
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else if (!own_flag(arg, &ok)) {
      std::printf("unknown flag '%s'\n\n", arg.c_str());
      return Usage(kExitUsage);
    }
    if (!ok) {
      std::printf("bad value in '%s'\n\n", arg.c_str());
      return Usage(kExitUsage);
    }
  }
  // Live tracing costs memory per event: only keep the tracer on when the
  // stream will be written somewhere.
  obs_.tracer.set_enabled(!trace_path_.empty());
  return std::nullopt;
}

int ServingMain::Serve(ShardedServer* server, std::function<void()> on_hup,
                       const std::function<void()>& banner,
                       const std::function<void()>& summary) {
  const NetServerConfig& net = config_.base;
  if (!server->Start()) {
    std::fprintf(stderr, "%s: failed to bind %s:%u\n", name_,
                 net.bind_host.c_str(), net.port);
    return kExitBindFailure;
  }
  g_hup_reloads = static_cast<bool>(on_hup);
  server->shard(0).SetReloadHandler(std::move(on_hup));
  g_server = server;
  if (!pidfile_path_.empty() &&
      !WriteStringToFile(pidfile_path_, std::to_string(::getpid()) + "\n")) {
    std::fprintf(stderr, "%s: could not write pidfile %s\n", name_,
                 pidfile_path_.c_str());
  }
  for (const int sig : {SIGINT, SIGTERM, SIGUSR1, SIGHUP}) {
    std::signal(sig, HandleSignal);
  }
  std::signal(SIGPIPE, SIG_IGN);

  // Machine-parsed lines come before the banner.
  std::printf("listening %u\n", server->port());
  if (net.metrics_port >= 0) {
    std::printf("metrics listening %u\n", server->metrics_port());
  }
  banner();
  std::fflush(stdout);

  const bool ok = server->Run();
  g_server = nullptr;
  // Each reactor keeps its own trace and span rings: concatenate them.
  std::string trace;
  std::string spans;
  size_t span_count = 0;
  for (uint32_t i = 0; i < server->shard_count(); ++i) {
    trace += ToJsonl(server->shard_obs(i).tracer);  // empty unless --trace
    RequestTelemetry* t = server->shard(i).telemetry();
    if (t != nullptr && !net.span_dump_path.empty()) {
      spans += t->RenderFlightRecorderJsonl();
      span_count += t->ring_size();
    }
  }
  if (!trace_path_.empty() && WriteStringToFile(trace_path_, trace)) {
    std::printf("trace written to %s\n", trace_path_.c_str());
  }
  if (!net.metrics_dump_path.empty() &&
      WriteStringToFile(net.metrics_dump_path,
                        server->shard(0).RenderMetrics())) {
    std::printf("metrics snapshot written to %s\n",
                net.metrics_dump_path.c_str());
  }
  if (!net.span_dump_path.empty() &&
      WriteStringToFile(net.span_dump_path, spans)) {
    std::printf("flight recorder (%zu spans) written to %s\n", span_count,
                net.span_dump_path.c_str());
  }
  summary();
  if (!pidfile_path_.empty()) {
    ::unlink(pidfile_path_.c_str());
  }
  return ok ? 0 : kExitRunFailure;
}

}  // namespace spotcache::net
