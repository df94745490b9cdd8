// spotcache_fleet: the end-to-end chaos drill against real server processes.
//
//   spotcache_fleet --server=./spotcache_server --proxy=./spotcache_proxy
//                   [--seed=42] [--kills=2] [--primaries=3]
//                   [--report=FILE] [--trace=FILE]
//
// Spawns a fleet (N primaries + 1 burstable-style backup) of real
// spotcache_server processes and a standalone spotcache_proxy in front of
// them, drives open-loop Zipf traffic through the proxy, and executes a
// (seed, scenario)-deterministic kill schedule: revocation warning, SIGKILL
// at the deadline, replacement launch, and wire-level warm-up from the
// backup — the paper's Figure 4 recovery cases (1a/1b/2) acted out with
// live sockets. The proxy follows every chaos action through the fleet
// membership file + SIGHUP. The JSON report is the recovery timeline:
// per-kill warning/kill/warm-up timestamps, client-observed hit-rate
// windows, client latency and connection errors, and the proxy's counters.
//
// Flags:
//   --server=PATH          spotcache_server binary (required)
//   --proxy=PATH           spotcache_proxy binary (required)
//   --connections=N        open-loop connections against the proxy (def. 4)
//   --seed=N               drives the kill schedule AND the traffic stream
//   --kills=N              revocation storms in the chaos window (default 2)
//   --primaries=N          primary fleet size (default 3)
//   --missed-warning=F     fraction of warnings suppressed (Fig 4 case 2)
//   --late-warning=F       fraction of warnings with reduced lead
//   --capacity-mb=N        per-process LRU capacity (default 16)
//   --keys=N --hot=N       key-space and hot-set sizes
//   --rate=N               offered ops/sec (default 2000)
//   --lead-in-ms=N         pre-chaos baseline traffic (default 400)
//   --chaos-ms=N           chaos window length (default 2000)
//   --recovery-ms=N        post-chaos observation window (default 1200)
//   --warning-lead-ms=N    drill-scale two-minute notice (default 400)
//   --boot-delay-ms=N      modeled replacement boot time (default 150)
//   --warmup-mbps=F        warm-up token-bucket rate (default 4 MiB/s)
//   --grid                 sweep the (seed x storms x warning fate) drill
//                          grid instead of one drill; markdown to stdout
//   --grid-out=FILE        write the grid markdown table to FILE
//   --report=FILE          write the JSON drill report (default stdout only)
//   --trace=FILE           write the control-plane JSONL event trace
//   --help
//
// Numeric flags are parsed strictly: a value that is not a number, or is
// out of range (fractions outside [0, 1]; primaries, connections,
// capacity, keys and rate below 1; negative seeds, storms or times), is a
// bad flag.
//
// Exit codes: 0 = drill ran and the fleet recovered; 1 = drill failed to
// run; 2 = bad flags; 4 = drill ran but the hit rate never re-reached the
// recovery threshold; 5 = drill recovered but surfaced connection failures
// to clients (failed conns or abandoned in-flight ops — the proxy's
// absorption contract broke). CI gates on 4 and 5 specifically.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/fleet/drill.h"
#include "src/fleet/drill_grid.h"
#include "src/obs/exporters.h"
#include "src/util/flags.h"

using namespace spotcache;
using namespace spotcache::fleet;

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitNoRecovery = 4;
constexpr int kExitConnErrors = 5;

int Usage(int exit_code) {
  std::printf(
      "usage: spotcache_fleet --server=PATH --proxy=PATH\n"
      "                       [--connections=N]\n"
      "                       [--seed=N] [--kills=N]\n"
      "                       [--primaries=N] [--missed-warning=F]\n"
      "                       [--late-warning=F] [--capacity-mb=N]\n"
      "                       [--keys=N] [--hot=N] [--rate=N]\n"
      "                       [--lead-in-ms=N] [--chaos-ms=N]\n"
      "                       [--recovery-ms=N] [--warning-lead-ms=N]\n"
      "                       [--boot-delay-ms=N] [--warmup-mbps=F]\n"
      "                       [--grid] [--grid-out=FILE]\n"
      "                       [--report=FILE] [--trace=FILE] [--help]\n"
      "\n"
      "Runs the fleet chaos drill: real spotcache_server processes, real\n"
      "SIGKILL revocations on a (seed, scenario)-deterministic schedule,\n"
      "and wire-level warm-up of replacements from the backup. Traffic\n"
      "flows through a supervised spotcache_proxy that follows the chaos\n"
      "via membership-file reloads. Numeric flags must be numbers in\n"
      "range (fractions in [0, 1], sizes and rates at least 1).\n"
      "Exit: 0 recovered, 1 drill error, 2 bad flags, 4 ran but did not\n"
      "recover, 5 recovered but surfaced connection failures to clients.\n");
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  FleetDrillConfig config;
  int kills = 2;
  double missed_warning = 0.0;
  double late_warning = 0.0;
  double warmup_mbps = 4.0;
  bool grid = false;
  std::string grid_out_path;
  std::string report_path;
  std::string trace_path;

  constexpr int64_t kMaxInt = 1 << 30;
  constexpr int64_t kMaxMs = 86'400'000;  // one day
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t n = 0;
    bool ok = true;
    if (arg.rfind("--server=", 0) == 0) {
      config.server_binary = arg.substr(9);
    } else if (arg.rfind("--proxy=", 0) == 0) {
      config.proxy_binary = arg.substr(8);
    } else if (arg.rfind("--connections=", 0) == 0) {
      ok = ParseInt(arg.substr(14), 1, kMaxInt, &n);
      config.proxy_connections = static_cast<int>(n);
    } else if (arg.rfind("--seed=", 0) == 0) {
      ok = ParseInt(arg.substr(7), 0, INT64_MAX, &n);
      config.seed = static_cast<uint64_t>(n);
    } else if (arg.rfind("--kills=", 0) == 0) {
      ok = ParseInt(arg.substr(8), 0, kMaxInt, &n);
      kills = static_cast<int>(n);
    } else if (arg.rfind("--primaries=", 0) == 0) {
      ok = ParseInt(arg.substr(12), 1, kMaxInt, &n);
      config.primaries = static_cast<int>(n);
    } else if (arg.rfind("--missed-warning=", 0) == 0) {
      ok = ParseReal(arg.substr(17), 0.0, 1.0, &missed_warning);
    } else if (arg.rfind("--late-warning=", 0) == 0) {
      ok = ParseReal(arg.substr(15), 0.0, 1.0, &late_warning);
    } else if (arg.rfind("--capacity-mb=", 0) == 0) {
      ok = ParseInt(arg.substr(14), 1, kMaxInt, &n);
      config.capacity_mb = static_cast<int>(n);
    } else if (arg.rfind("--keys=", 0) == 0) {
      ok = ParseInt(arg.substr(7), 1, INT64_MAX, &n);
      config.num_keys = static_cast<uint64_t>(n);
    } else if (arg.rfind("--hot=", 0) == 0) {
      ok = ParseInt(arg.substr(6), 0, INT64_MAX, &n);
      config.hot_keys = static_cast<uint64_t>(n);
    } else if (arg.rfind("--rate=", 0) == 0) {
      ok = ParseReal(arg.substr(7), 1.0, 1e9, &config.rate);
    } else if (arg.rfind("--lead-in-ms=", 0) == 0) {
      ok = ParseInt(arg.substr(13), 0, kMaxMs, &n);
      config.lead_in = Duration::Millis(n);
    } else if (arg.rfind("--chaos-ms=", 0) == 0) {
      ok = ParseInt(arg.substr(11), 0, kMaxMs, &n);
      config.chaos_window = Duration::Millis(n);
    } else if (arg.rfind("--recovery-ms=", 0) == 0) {
      ok = ParseInt(arg.substr(14), 0, kMaxMs, &n);
      config.recovery_window = Duration::Millis(n);
    } else if (arg.rfind("--warning-lead-ms=", 0) == 0) {
      ok = ParseInt(arg.substr(18), 0, kMaxMs, &n);
      config.warning_lead = Duration::Millis(n);
    } else if (arg.rfind("--boot-delay-ms=", 0) == 0) {
      ok = ParseInt(arg.substr(16), 0, kMaxMs, &n);
      config.replacement_boot_delay = Duration::Millis(n);
    } else if (arg.rfind("--warmup-mbps=", 0) == 0) {
      ok = ParseReal(arg.substr(14), 1e-3, 1e6, &warmup_mbps);
    } else if (arg == "--grid") {
      grid = true;
    } else if (arg.rfind("--grid-out=", 0) == 0) {
      grid = true;
      grid_out_path = arg.substr(11);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
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

  if (config.server_binary.empty() || config.proxy_binary.empty()) {
    std::printf("--server=PATH and --proxy=PATH are required\n\n");
    return Usage(kExitUsage);
  }

  config.scenario.name = "fleet_drill";
  config.scenario.storm_count = kills;
  config.scenario.storm_market_fraction =
      1.0 / static_cast<double>(std::max(config.primaries, 1));
  config.scenario.missed_warning_fraction = missed_warning;
  config.scenario.late_warning_fraction = late_warning;
  config.scenario.window_start = SimTime();
  config.scenario.window_end = SimTime() + Duration::Minutes(10);
  config.warmup.bytes_per_sec = warmup_mbps * 1024.0 * 1024.0;

  std::printf(
      "fleet drill: %d primaries + backup behind a proxy, %d storm(s), "
      "seed %llu, %.0f ops/s\n",
      config.primaries, kills,
      static_cast<unsigned long long>(config.seed), config.rate);
  std::fflush(stdout);

  if (grid) {
    const std::vector<DrillGridCell> cells = DefaultDrillGrid(config);
    std::printf("drill grid: %zu cells (seed x storms x warning fate)\n",
                cells.size());
    std::fflush(stdout);
    const std::vector<DrillGridRow> rows = RunDrillGrid(config, cells);
    const std::string table = RenderDrillGridMarkdown(rows);
    std::fputs(table.c_str(), stdout);
    if (!grid_out_path.empty() &&
        WriteStringToFile(grid_out_path, table)) {
      std::printf("grid table written to %s\n", grid_out_path.c_str());
    }
    int failures = 0;
    for (const DrillGridRow& row : rows) {
      if (!row.report.ok) {
        std::fprintf(stderr, "cell %s failed: %s\n", row.cell.label.c_str(),
                     row.report.error.c_str());
        ++failures;
      }
    }
    return failures == 0 ? 0 : 1;
  }

  const FleetDrillReport report = RunFleetDrill(config);
  const std::string json = RenderDrillJson(report);

  if (!report_path.empty() && WriteStringToFile(report_path, json)) {
    std::printf("report written to %s\n", report_path.c_str());
  } else if (report_path.empty()) {
    std::fputs(json.c_str(), stdout);
  }
  if (!trace_path.empty() &&
      WriteStringToFile(trace_path, report.trace_jsonl)) {
    std::printf("trace written to %s\n", trace_path.c_str());
  }

  if (!report.ok) {
    std::fprintf(stderr, "drill failed: %s\n", report.error.c_str());
    return 1;
  }

  std::printf(
      "drill: %llu ops in %.2fs; pre-kill hit rate %.3f, final %.3f, "
      "recovered=%s\n",
      static_cast<unsigned long long>(report.total_ops), report.duration_s,
      report.pre_kill_hit_rate, report.final_hit_rate,
      report.recovered ? "yes" : "no");
  const uint64_t conn_errors =
      report.loadgen.failed_conns + report.loadgen.abandoned;
  std::printf(
      "proxy: offered %.0f rps, achieved %.0f rps, p99 %.2f ms, "
      "client conn errors %llu (generation %llu)\n",
      report.loadgen.offered_rps, report.loadgen.achieved_rps,
      report.loadgen.latency.p99_us / 1000.0,
      static_cast<unsigned long long>(conn_errors),
      static_cast<unsigned long long>(report.membership_generation));
  if (report.recovered && conn_errors > 0) {
    std::fprintf(stderr,
                 "proxy surfaced %llu connection failure(s) to clients\n",
                 static_cast<unsigned long long>(conn_errors));
    return kExitConnErrors;
  }
  return report.recovered ? 0 : kExitNoRecovery;
}
