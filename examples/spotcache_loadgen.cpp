// spotcache_loadgen: open-loop traffic engine + tail-latency harness.
//
//   spotcache_loadgen --port=N [--host=127.0.0.1] [--connections=8]
//                     [--server-shards=N] [--no-probe-shards]
//                     [--rate=5000] [--duration=10]
//                     [--schedule=poisson|diurnal]
//                     [--diurnal-period=60] [--diurnal-amplitude=0.5]
//                     [--phase=START:DUR:MULT[:SHIFT]]...
//                     [--keys=10000] [--theta=0.99] [--scramble]
//                     [--get-ratio=0.9] [--value-bytes=100]
//                     [--value-bytes-max=0] [--seed=1] [--no-prefill]
//                     [--drain-timeout=2]
//                     [--keyfile=PATH] [--write-keyfile=PATH]
//                     [--keyfile-count=1000000]
//                     [--json=PATH] [--trace=PATH] [--dry-run]
//
// Open loop: requests are released on the configured arrival schedule no
// matter how fast the server answers, so queueing delay shows up in the
// measured latency instead of silently throttling the offered rate.
// Latency percentiles are therefore comparable across PRs at a fixed offered
// rate (see EXPERIMENTS.md "Load & tail latency" for the open- vs
// closed-loop caveat).
//
// Against a sharded server (`spotcache_server --threads=N`), pass
// --server-shards=N: --connections is rounded up to a multiple of N so the
// kernel's SO_REUSEPORT hash has a fair chance of spreading the fleet across
// reactors. Each connection is probed with one `stats spotcache` round-trip
// before the measured window, and the JSON report gains a
// "shard_distribution" block (connections per shard + per-connection shard).
// --no-probe-shards skips the probe.
//
//   --phase=8:2:4        from t=8 s, for 2 s, offer 4x the base rate
//   --phase=5:3:1:5000   from t=5 s, for 3 s, shift popularity ranks by 5000
//   --dry-run            generate the op stream without a server and print
//                        its length + FNV digest (replay determinism checks)
//   --write-keyfile=F    sample --keyfile-count ranks to F (raw u32 LE), then
//                        exit; --keyfile=F replays keys from such a file
//   --json=F             write the run report (the BENCH_latency.json shape)
//   --trace=F            write a JSONL event stream (run_config / interval /
//                        segment / run_summary)
//
// Numeric flags are strict: a non-numeric or out-of-range value prints the
// usage and exits 2 (test_loadgen_flags).
//
// Exit status: 0 on a clean run (connections survived, stream drained), 1
// otherwise, 2 on bad flags — the CI gate applies latency/throughput
// thresholds separately (tests/golden/check_latency.py).

#include <cstdio>
#include <cstring>
#include <string>

#include "src/loadgen/engine.h"
#include "src/loadgen/report.h"
#include "src/obs/exporters.h"
#include "src/util/flags.h"

using namespace spotcache;
using namespace spotcache::loadgen;

namespace {

int Usage() {
  std::printf(
      "usage: spotcache_loadgen --port=N [--host=H] [--connections=N]\n"
      "         [--server-shards=N] [--no-probe-shards]\n"
      "         [--rate=RPS] [--duration=S] [--schedule=poisson|diurnal]\n"
      "         [--diurnal-period=S] [--diurnal-amplitude=F]\n"
      "         [--phase=START:DUR:MULT[:SHIFT]]... [--keys=N] [--theta=F]\n"
      "         [--scramble] [--get-ratio=F] [--value-bytes=N]\n"
      "         [--value-bytes-max=N] [--seed=N] [--no-prefill]\n"
      "         [--drain-timeout=S] [--keyfile=F] [--write-keyfile=F]\n"
      "         [--keyfile-count=N] [--json=F] [--trace=F] [--dry-run]\n");
  return 2;
}

bool ParsePhase(const std::string& spec, Phase* out) {
  // START:DUR:MULT[:SHIFT]
  double start = 0.0;
  double dur = 0.0;
  double mult = 1.0;
  unsigned long long shift = 0;
  const int n = std::sscanf(spec.c_str(), "%lf:%lf:%lf:%llu", &start, &dur,
                            &mult, &shift);
  if (n < 3) {
    return false;
  }
  out->start_s = start;
  out->duration_s = dur;
  out->rate_multiplier = mult;
  out->hot_shift = shift;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  EngineConfig config;
  config.stream.schedule.base_rate_rps = 5000.0;
  config.stream.schedule.duration_s = 10.0;
  std::string json_path;
  std::string trace_path;
  std::string keyfile;
  std::string write_keyfile;
  size_t keyfile_count = 1'000'000;
  bool dry_run = false;
  int server_shards = 0;

  constexpr int64_t kMaxInt = 1 << 30;
  constexpr double kMaxSeconds = 1e7;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&arg](size_t prefix) { return arg.substr(prefix); };
    int64_t n = 0;
    bool ok = true;
    if (arg.rfind("--host=", 0) == 0) {
      config.host = val(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      ok = ParseInt(val(7), 1, 65535, &n);
      config.port = static_cast<uint16_t>(n);
    } else if (arg.rfind("--connections=", 0) == 0) {
      ok = ParseInt(val(14), 1, kMaxInt, &n);
      config.connections = static_cast<int>(n);
    } else if (arg.rfind("--server-shards=", 0) == 0) {
      ok = ParseInt(val(16), 0, kMaxInt, &n);
      server_shards = static_cast<int>(n);
    } else if (arg == "--no-probe-shards") {
      config.probe_shards = false;
    } else if (arg.rfind("--rate=", 0) == 0) {
      ok = ParseReal(val(7), 1e-3, 1e9, &config.stream.schedule.base_rate_rps);
    } else if (arg.rfind("--duration=", 0) == 0) {
      ok = ParseReal(val(11), 1e-3, kMaxSeconds,
                     &config.stream.schedule.duration_s);
    } else if (arg == "--schedule=poisson") {
      config.stream.schedule.kind = ScheduleConfig::Kind::kPoisson;
    } else if (arg == "--schedule=diurnal") {
      config.stream.schedule.kind = ScheduleConfig::Kind::kDiurnal;
    } else if (arg.rfind("--diurnal-period=", 0) == 0) {
      ok = ParseReal(val(17), 1e-3, kMaxSeconds,
                     &config.stream.schedule.diurnal_period_s);
    } else if (arg.rfind("--diurnal-amplitude=", 0) == 0) {
      ok = ParseReal(val(20), 0.0, 1.0,
                     &config.stream.schedule.diurnal_amplitude);
    } else if (arg.rfind("--phase=", 0) == 0) {
      Phase p;
      if (!ParsePhase(val(8), &p)) {
        std::printf("bad --phase spec '%s'\n\n", arg.c_str());
        return Usage();
      }
      config.stream.schedule.phases.push_back(p);
    } else if (arg.rfind("--keys=", 0) == 0) {
      ok = ParseInt(val(7), 1, INT64_MAX, &n);
      config.stream.keys.num_keys = static_cast<uint64_t>(n);
    } else if (arg.rfind("--theta=", 0) == 0) {
      ok = ParseReal(val(8), 0.0, 10.0, &config.stream.keys.theta);
    } else if (arg == "--scramble") {
      config.stream.keys.scramble = true;
    } else if (arg.rfind("--get-ratio=", 0) == 0) {
      ok = ParseReal(val(12), 0.0, 1.0, &config.stream.mix.get_ratio);
    } else if (arg.rfind("--value-bytes=", 0) == 0) {
      ok = ParseInt(val(14), 0, kMaxInt, &n);
      config.stream.mix.value_bytes = static_cast<uint32_t>(n);
    } else if (arg.rfind("--value-bytes-max=", 0) == 0) {
      ok = ParseInt(val(18), 0, kMaxInt, &n);
      config.stream.mix.value_bytes_max = static_cast<uint32_t>(n);
    } else if (arg.rfind("--seed=", 0) == 0) {
      ok = ParseInt(val(7), 0, INT64_MAX, &n);
      config.stream.seed = static_cast<uint64_t>(n);
    } else if (arg == "--no-prefill") {
      config.prefill = false;
    } else if (arg.rfind("--drain-timeout=", 0) == 0) {
      ok = ParseReal(val(16), 0.0, kMaxSeconds, &config.drain_timeout_s);
    } else if (arg.rfind("--keyfile=", 0) == 0) {
      keyfile = val(10);
    } else if (arg.rfind("--write-keyfile=", 0) == 0) {
      write_keyfile = val(16);
    } else if (arg.rfind("--keyfile-count=", 0) == 0) {
      ok = ParseInt(val(16), 1, kMaxInt, &n);
      keyfile_count = static_cast<size_t>(n);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = val(7);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = val(8);
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else {
      std::printf("unknown flag '%s'\n\n", arg.c_str());
      return Usage();
    }
    if (!ok) {
      std::printf("bad value in '%s'\n\n", arg.c_str());
      return Usage();
    }
  }
  if (config.stream.mix.value_bytes_max != 0 &&
      config.stream.mix.value_bytes_max < config.stream.mix.value_bytes) {
    std::printf("--value-bytes-max must be 0 (fixed size) or >= "
                "--value-bytes\n\n");
    return Usage();
  }

  if (server_shards > 1) {
    // Keep the fleet a multiple of the server's shard count so an even
    // SO_REUSEPORT spread gives every reactor the same offered load.
    const int rem = config.connections % server_shards;
    if (rem != 0) {
      const int rounded = config.connections + (server_shards - rem);
      std::printf("rounding --connections %d -> %d (multiple of %d shards)\n",
                  config.connections, rounded, server_shards);
      config.connections = rounded;
    }
  }

  if (!write_keyfile.empty()) {
    KeySampler sampler(config.stream.keys);
    Rng rng(config.stream.seed);
    const auto ranks = GenerateRanks(sampler, keyfile_count, rng);
    if (!WriteKeyFile(write_keyfile, ranks)) {
      std::fprintf(stderr, "failed to write keyfile %s\n",
                   write_keyfile.c_str());
      return 1;
    }
    std::printf("wrote %zu ranks to %s\n", ranks.size(),
                write_keyfile.c_str());
    return 0;
  }

  if (!keyfile.empty()) {
    auto ranks = LoadKeyFile(keyfile);
    if (!ranks.has_value() || ranks->empty()) {
      std::fprintf(stderr, "failed to load keyfile %s\n", keyfile.c_str());
      return 1;
    }
    config.stream.key_ranks = std::move(*ranks);
  }

  if (dry_run) {
    // Materialize the whole stream (bounded) and fingerprint it.
    const size_t cap = static_cast<size_t>(
        config.stream.schedule.base_rate_rps *
            config.stream.schedule.duration_s * 16.0 +
        1024.0);
    const auto ops = GenerateOps(config.stream, cap);
    std::printf("ops: %zu\ndigest: %016llx\n", ops.size(),
                static_cast<unsigned long long>(OpStreamDigest(ops)));
    return 0;
  }

  if (config.port == 0) {
    std::printf("--port is required (use the server's `listening <port>` "
                "readiness line)\n\n");
    return Usage();
  }

  const LoadGenResult result = RunOpenLoop(config);
  const std::string report = RenderRunJson(config, result);

  if (!json_path.empty() && WriteStringToFile(json_path, report + "\n")) {
    std::printf("report written to %s\n", json_path.c_str());
  } else {
    std::printf("%s\n", report.c_str());
  }
  if (!trace_path.empty() &&
      WriteStringToFile(trace_path, RenderTraceJsonl(config, result))) {
    std::printf("trace written to %s\n", trace_path.c_str());
  }

  if (!result.ok) {
    std::fprintf(stderr, "loadgen failed: %s\n", result.error.c_str());
    return 1;
  }
  if (!result.shard_conn_counts.empty()) {
    std::string dist;
    for (size_t i = 0; i < result.shard_conn_counts.size(); ++i) {
      if (i > 0) {
        dist += ' ';
      }
      dist += std::to_string(i) + ':' +
              std::to_string(result.shard_conn_counts[i]);
    }
    std::printf("server shards: %u; connections per shard: %s\n",
                result.server_shards, dist.c_str());
  }
  std::printf(
      "offered %.0f rps, achieved %.0f rps (%.1f%%); p50 %.0f us, p99 %.0f "
      "us, p999 %.0f us; %llu errors, %llu abandoned\n",
      result.offered_rps, result.achieved_rps,
      result.offered_rps > 0.0
          ? 100.0 * result.achieved_rps / result.offered_rps
          : 0.0,
      result.latency.p50_us, result.latency.p99_us, result.latency.p999_us,
      static_cast<unsigned long long>(result.errors),
      static_cast<unsigned long long>(result.abandoned));
  return 0;
}
