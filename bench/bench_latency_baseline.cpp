// Tail-latency baseline: the committed BENCH_latency.json (ISSUE 6).
//
//   bench_latency_baseline [--quick] [out.json]
//
// Starts an in-process NetServer on an ephemeral loopback port and drives it
// with the open-loop engine through two seed-pinned scenarios:
//
//   * steady_poisson: constant offered rate — the baseline
//     throughput-vs-tail operating point every later PR is compared at;
//   * flash_crowd:    the same baseline with a mid-run phase offering 4x the
//     rate while shifting the hot keys — the paper's "popular object
//     turnover" stressor; the phase's p99/p999 is the number the
//     multi-core serving work (ROADMAP item 1) has to move.
//
// The op streams are pure functions of the pinned seed (replay is
// bit-identical; pinned by test_loadgen); only the measured latencies vary
// with the machine. Like BENCH_perf.json, the recorded throughput/latency
// numbers are a trajectory, not a gate — the exit status only checks that
// the harness itself held up (connections survived, no abandoned in-flight
// ops, nothing shed).

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "src/loadgen/engine.h"
#include "src/loadgen/report.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/obs/exporters.h"

using namespace spotcache;
using namespace spotcache::loadgen;

namespace {

EngineConfig BaseConfig(uint16_t port, bool quick) {
  EngineConfig config;
  config.port = port;
  config.connections = 8;
  config.stream.seed = 42;
  config.stream.keys.num_keys = 10'000;
  config.stream.keys.theta = 0.99;
  config.stream.mix.get_ratio = 0.9;
  config.stream.mix.value_bytes = 100;
  config.stream.schedule.base_rate_rps = 5000.0;
  config.stream.schedule.duration_s = quick ? 1.5 : 4.0;
  return config;
}

bool HarnessHeldUp(const LoadGenResult& r) {
  return r.ok && r.errors == 0 && r.abandoned == 0 && r.failed_conns == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  net::NetServerConfig server_config;  // ephemeral port
  net::ServerCore core(net::ServerCoreConfig{});
  net::NetServer server(server_config, &core);
  if (!server.Start()) {
    std::fprintf(stderr, "failed to start loopback server\n");
    return 1;
  }
  std::thread loop([&server] { server.Run(); });

  // Scenario 1: steady Poisson at the baseline operating point.
  const EngineConfig steady_config = BaseConfig(server.port(), quick);
  const LoadGenResult steady = RunOpenLoop(steady_config);

  // Scenario 2: flash crowd — 4x offered rate and a hot-key shift for the
  // middle fifth of the run.
  EngineConfig flash_config = BaseConfig(server.port(), quick);
  flash_config.stream.schedule.base_rate_rps = 4000.0;
  Phase flash;
  flash.start_s = flash_config.stream.schedule.duration_s * 0.4;
  flash.duration_s = flash_config.stream.schedule.duration_s * 0.2;
  flash.rate_multiplier = 4.0;
  flash.hot_shift = 5'000;
  flash_config.stream.schedule.phases.push_back(flash);
  const LoadGenResult crowd = RunOpenLoop(flash_config);

  server.Stop();
  loop.join();

  std::string json = "{\n\"meta\": {\"quick\": ";
  json += quick ? "true" : "false";
  json += ", \"threads\": 1, \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"seed\": 42},\n";
  json += "\"steady_poisson\": " + RenderRunJson(steady_config, steady) +
          ",\n";
  json += "\"flash_crowd\": " + RenderRunJson(flash_config, crowd) + "\n}\n";

  if (!out_path.empty()) {
    if (!WriteStringToFile(out_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("%s", json.c_str());
  }

  std::printf(
      "steady:      offered %7.0f rps, achieved %7.0f rps, p50 %6.0f us, "
      "p99 %7.0f us, p999 %7.0f us\n",
      steady.offered_rps, steady.achieved_rps, steady.latency.p50_us,
      steady.latency.p99_us, steady.latency.p999_us);
  const SegmentStats& flash_seg = crowd.segments.back();
  std::printf(
      "flash crowd: offered %7.0f rps, achieved %7.0f rps, p50 %6.0f us, "
      "p99 %7.0f us, p999 %7.0f us (phase: offered %7.0f, p99 %7.0f us)\n",
      crowd.offered_rps, crowd.achieved_rps, crowd.latency.p50_us,
      crowd.latency.p99_us, crowd.latency.p999_us, flash_seg.offered_rps,
      flash_seg.latency.p99_us);

  if (!HarnessHeldUp(steady) || !HarnessHeldUp(crowd)) {
    std::fprintf(stderr, "harness failure: %s / %s\n",
                 steady.ok ? "steady ok" : steady.error.c_str(),
                 crowd.ok ? "crowd ok" : crowd.error.c_str());
    return 1;
  }
  return 0;
}
