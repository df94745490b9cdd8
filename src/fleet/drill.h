// The end-to-end fleet drill: real processes, real traffic, real kills.
//
// RunFleetDrill wires everything together: a ProcessSupervisor-spawned fleet
// (N primaries + 1 backup), a supervised spotcache_proxy in front of it, the
// open-loop loadgen engine driving Zipf traffic at the proxy, and a
// FleetController executing the (seed, scenario)-deterministic KillSchedule
// while the traffic runs. Every chaos action reaches the proxy as a new
// membership-file generation plus a SIGHUP. The report is the paper's
// recovery story as measured data: per-kill timelines (warning -> SIGKILL ->
// replacement ready -> warm-up start/end), client-observed hit-rate windows
// across the whole drill, the proxy's own counters, and the control-plane
// JSONL event trace.
//
// Determinism boundary: the kill/launch *schedule* and the op stream are
// pure functions of (seed, scenario, config); wall-clock timings, byte
// arrival order, and therefore the measured hit-rate trajectory are not.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/fleet/fleet_controller.h"
#include "src/fleet/kill_schedule.h"
#include "src/fleet/warmup_streamer.h"
#include "src/loadgen/engine.h"

namespace spotcache::fleet {

struct FleetDrillConfig {
  std::string server_binary;
  uint64_t seed = 42;
  /// Storm events in this spec become real SIGKILLs; other fault families
  /// are control-loop-only and ignored by fleet mode.
  FaultScenarioSpec scenario;

  int primaries = 3;
  int capacity_mb = 16;

  // --- Key space and traffic mix. ---
  uint64_t num_keys = 2000;
  double zipf_theta = 0.99;
  /// The hot set: ids [0, hot_keys) are prefilled into the backup and
  /// re-streamed to replacements (rank == id; the drill never scrambles).
  /// Under Zipf(0.99) the hot set must cover at least recovery_threshold of
  /// the get mass for recovery to be a property of the warm-up path rather
  /// than of read-through luck: H(hot)/H(num_keys) >= 0.9 needs
  /// hot/num_keys >~ 0.55 at these sizes.
  uint64_t hot_keys = 1200;
  size_t value_bytes = 96;
  double rate = 2000.0;  // offered ops/sec at the proxy
  double set_fraction = 0.1;
  /// Cache-aside client behavior: a get miss is followed by a set, so the
  /// fleet re-fills cold keys lost to a kill (how real traffic recovers).
  bool read_through = true;

  // --- Drill timeline (wall clock). ---
  Duration lead_in = Duration::Millis(400);  // pre-chaos baseline traffic
  Duration chaos_window = Duration::Seconds(2);
  Duration recovery_window = Duration::Millis(1200);
  Duration warning_lead = Duration::Millis(400);
  Duration replacement_boot_delay = Duration::Millis(150);
  Duration hit_window = Duration::Millis(100);  // hit-rate bucketing

  /// Recovered = a post-kill window reaches this fraction of the pre-kill
  /// hit rate.
  double recovery_threshold = 0.9;

  WarmupConfig warmup;
  /// Launch handshake/retry knobs (server_binary is filled in from above).
  SupervisorConfig supervisor;

  // --- Proxy tier. ---
  /// The spotcache_proxy binary launched in front of the fleet; it follows
  /// the chaos through the per-pid membership file + SIGHUP.
  std::string proxy_binary;
  /// Open-loop connections against the proxy.
  int proxy_connections = 4;
};

/// One client-observed hit-rate bucket of the traffic timeline (the proxy
/// hides which rung served a hit; its own stats carry that split).
struct DrillWindow {
  int64_t start_us = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t sheds = 0;  // SERVER_ERROR replies (writes with no rung)
  uint64_t sets = 0;

  double HitRate() const {
    return gets == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(gets);
  }
};

struct FleetDrillReport {
  bool ok = false;
  std::string error;

  KillSchedule schedule;  // the pure, replayable plan
  std::vector<RecoveryRecord> recoveries;
  std::vector<DrillWindow> windows;

  double pre_kill_hit_rate = 0.0;
  double final_hit_rate = 0.0;
  /// First window start (drill us) at/after the last kill whose hit rate
  /// reached recovery_threshold * pre_kill_hit_rate; -1 if never.
  int64_t recovered_us = -1;
  bool recovered = false;

  uint64_t total_ops = 0;
  double duration_s = 0.0;

  /// The controller's JSONL event trace (time-ordered).
  std::string trace_jsonl;

  /// The client-side view through the proxy: open-loop latency, achieved
  /// vs offered, failed_conns/abandoned (the zero-surfaced-errors gate).
  loadgen::LoadGenResult loadgen;
  /// The proxy's own `stats` counters (proxy_* lines) scraped at drill end.
  std::map<std::string, uint64_t> proxy_stats;
  /// Final membership-file generation the publisher reached.
  uint64_t membership_generation = 0;
};

FleetDrillReport RunFleetDrill(const FleetDrillConfig& config);

/// The drill report as a JSON document: schedule, recoveries, windows, the
/// client-side `proxy` block (with the proxy's scraped stats) and summary.
std::string RenderDrillJson(const FleetDrillReport& report);

}  // namespace spotcache::fleet
