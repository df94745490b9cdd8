// FleetController: executes a deterministic KillSchedule against real
// spotcache_server processes — the paper's control actions made wire-real.
//
// Lifecycle per kill action (states in DESIGN.md "Fleet mode"):
//
//   warned path:    [serving] --warning--> [doomed, replacement booting]
//                   --SIGKILL at deadline--> [dead] --replacement ready-->
//                   [warming] --warm-up done--> [serving via replacement]
//   unwarned path:  [serving] --SIGKILL--> [dead] --spawn+boot--> [warming]
//                   --warm-up done--> [serving via replacement]
//
// The Fig 4 case label is decided exactly as in the simulator:
//   1a — warned and the replacement was ready (booted) before the kill
//        deadline, so warm-up ran inside the warning window;
//   1b — warned but the replacement was still booting at the kill;
//   2  — no warning: spawn, boot, and warm-up all happen post-mortem.
//
// During [dead]/[warming] the slot is published dead, so the proxy degrades
// its traffic to the backup; the replacement is swapped into the ring only
// once its warm-up completes (the paper's backup-serves-until-warm
// discipline). Replacement boot time is modeled by an explicit
// `replacement_boot_delay` (a real EC2 boot, compressed), which is what
// makes case 1b reachable at drill scale.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fleet/kill_schedule.h"
#include "src/fleet/membership_publisher.h"
#include "src/fleet/process_supervisor.h"
#include "src/fleet/warmup_streamer.h"
#include "src/obs/trace.h"

namespace spotcache::fleet {

struct FleetControllerConfig {
  SupervisorConfig supervisor;
  WarmupConfig warmup;
  int primaries = 3;
  /// Modeled instance boot time between spawn and readiness-to-warm.
  Duration replacement_boot_delay = Duration::Millis(150);
  /// Per-primary item-store capacity flag (forwarded to the server).
  int capacity_mb = 16;
};

/// The recovery timeline of one executed kill, in drill-relative wall
/// microseconds (-1 where a phase did not happen).
struct RecoveryRecord {
  int slot = 0;
  bool warned = false;
  std::string case_label;       // "1a", "1b", "2"
  Duration planned_kill_at;     // from the (pure) schedule
  int64_t warning_us = -1;
  int64_t kill_us = -1;
  int64_t replacement_ready_us = -1;
  int64_t warmup_start_us = -1;
  int64_t warmup_end_us = -1;
  bool replacement_ok = false;
  int spawn_attempts = 0;
  uint16_t old_port = 0;
  uint16_t new_port = 0;
  WarmupResult warmup;
};

class FleetController {
 public:
  /// `members` is the membership file the chaos is narrated to (the proxy
  /// re-reads it on every generation). `tracer` (nullable) receives the
  /// control-plane event stream; it must only be touched from the thread
  /// calling ExecuteSchedule.
  FleetController(const FleetControllerConfig& config,
                  MembershipPublisher* members, EventTracer* tracer);
  ~FleetController();

  /// Spawns the backup plus `primaries` server processes and registers them
  /// in the membership. Returns false (with `error`) on launch exhaustion.
  bool StartFleet(std::string* error);

  /// SIGTERMs every live process (drill teardown).
  void StopFleet();

  int primary_count() const { return static_cast<int>(primaries_.size()); }
  uint16_t primary_port(int slot) const { return primaries_[slot].port; }
  uint16_t backup_port() const { return backup_.port; }

  /// Keys that must be re-fed to slot's replacement (the drill provides the
  /// hot set it prefilled into the backup).
  using HotKeysFn = std::function<std::vector<std::string>(int slot)>;

  /// Blocks through the whole schedule. `epoch_us` is the wall-clock anchor
  /// (steady-clock micros) that drill-relative timestamps subtract.
  std::vector<RecoveryRecord> ExecuteSchedule(const KillSchedule& schedule,
                                              const HotKeysFn& hot_keys,
                                              int64_t epoch_us);

  const ProcessSupervisor& supervisor() const { return supervisor_; }

 private:
  int64_t DrillNowUs(int64_t epoch_us) const;
  void SleepUntil(int64_t epoch_us, Duration at);
  SimTime TraceNow(int64_t epoch_us) const;
  void ExecuteAction(const KillAction& action, const HotKeysFn& hot_keys,
                     int64_t epoch_us, RecoveryRecord* record);

  FleetControllerConfig config_;
  MembershipPublisher* members_;
  EventTracer* tracer_;
  ProcessSupervisor supervisor_;
  std::vector<ServerProcess> primaries_;
  ServerProcess backup_;
  bool backup_started_ = false;
};

}  // namespace spotcache::fleet
