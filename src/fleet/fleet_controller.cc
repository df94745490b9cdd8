#include "src/fleet/fleet_controller.h"

#include <time.h>

#include <algorithm>
#include <chrono>

namespace spotcache::fleet {

namespace {

int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepWall(Duration d) {
  if (d <= Duration::Micros(0)) {
    return;
  }
  timespec ts{};
  ts.tv_sec = d.micros() / 1'000'000;
  ts.tv_nsec = (d.micros() % 1'000'000) * 1000;
  ::nanosleep(&ts, nullptr);
}

constexpr std::string_view kMarket = "fleet";

}  // namespace

FleetController::FleetController(const FleetControllerConfig& config,
                                 MembershipPublisher* members,
                                 EventTracer* tracer)
    : config_(config), members_(members), tracer_(tracer),
      supervisor_(config.supervisor) {}

FleetController::~FleetController() { StopFleet(); }

int64_t FleetController::DrillNowUs(int64_t epoch_us) const {
  return WallUs() - epoch_us;
}

SimTime FleetController::TraceNow(int64_t epoch_us) const {
  return SimTime::FromMicros(DrillNowUs(epoch_us));
}

void FleetController::SleepUntil(int64_t epoch_us, Duration at) {
  const int64_t remaining = at.micros() - DrillNowUs(epoch_us);
  if (remaining > 0) {
    SleepWall(Duration::Micros(remaining));
  }
}

bool FleetController::StartFleet(std::string* error) {
  const std::vector<std::string> server_args = {
      "--port=0", "--capacity-mb=" + std::to_string(config_.capacity_mb)};

  SpawnResult backup = supervisor_.Spawn("backup", server_args);
  if (!backup.ok) {
    *error = "backup launch failed: " + backup.error;
    return false;
  }
  backup_ = backup.process;
  backup_started_ = true;
  members_->SetBackup("127.0.0.1", backup_.port);

  primaries_.clear();
  for (int slot = 0; slot < config_.primaries; ++slot) {
    SpawnResult r =
        supervisor_.Spawn("primary-" + std::to_string(slot), server_args);
    if (!r.ok) {
      *error = "primary " + std::to_string(slot) +
               " launch failed: " + r.error;
      return false;
    }
    primaries_.push_back(r.process);
    members_->SetNode(static_cast<uint64_t>(slot), "127.0.0.1", r.process.port);
    if (tracer_ != nullptr) {
      tracer_->Launched(SimTime(), static_cast<uint64_t>(slot), kMarket,
                        "process", r.process.label);
    }
  }
  return true;
}

void FleetController::StopFleet() {
  for (auto& p : primaries_) {
    if (p.pid > 0) {
      supervisor_.Terminate(p);
    }
  }
  if (backup_started_ && backup_.pid > 0) {
    supervisor_.Terminate(backup_);
  }
}

void FleetController::ExecuteAction(const KillAction& action,
                                    const HotKeysFn& hot_keys,
                                    int64_t epoch_us, RecoveryRecord* record) {
  const int slot = action.slot;
  record->slot = slot;
  record->warned = action.warned;
  record->planned_kill_at = action.kill_at;
  record->old_port = primaries_[slot].port;

  ServerProcess replacement;
  bool replacement_spawned = false;
  Duration ready_at;  // drill-relative readiness (spawn + modeled boot)

  // --- Warning window: deliver the (possibly shortened) notice and start
  // the replacement booting, exactly what the paper's controller does on a
  // two-minute warning. ---
  if (action.warned) {
    const Duration warn_at = action.kill_at - action.warning_lead;
    SleepUntil(epoch_us, warn_at);
    record->warning_us = DrillNowUs(epoch_us);
    if (tracer_ != nullptr) {
      tracer_->RevocationWarning(TraceNow(epoch_us),
                                 static_cast<uint64_t>(slot), kMarket,
                                 action.late);
    }
    SpawnResult r = supervisor_.Spawn(
        "replacement-" + std::to_string(slot),
        {"--port=0", "--capacity-mb=" + std::to_string(config_.capacity_mb)});
    record->spawn_attempts = r.attempts;
    if (r.ok) {
      replacement = r.process;
      replacement_spawned = true;
      ready_at = Duration::Micros(DrillNowUs(epoch_us)) +
                 config_.replacement_boot_delay;
    } else if (tracer_ != nullptr) {
      tracer_->LaunchFailed(TraceNow(epoch_us), "process",
                            "replacement-" + std::to_string(slot));
    }
  }

  // --- Case 1a: the replacement finished booting before the deadline, so
  // warm-up runs inside the warning window, against a still-live primary. ---
  const bool ready_before_kill =
      replacement_spawned && ready_at <= action.kill_at;
  if (ready_before_kill) {
    SleepUntil(epoch_us, ready_at);
    record->replacement_ready_us = DrillNowUs(epoch_us);
    record->case_label = "1a";
    const auto keys = hot_keys(slot);
    record->warmup_start_us = DrillNowUs(epoch_us);
    if (tracer_ != nullptr) {
      tracer_->WarmupStart(TraceNow(epoch_us), static_cast<uint64_t>(slot),
                           "1a", 0.0, 0.0, TraceNow(epoch_us));
    }
    WarmupStreamer streamer(config_.warmup);
    record->warmup = streamer.Stream("127.0.0.1", backup_.port, "127.0.0.1",
                                     replacement.port, keys);
    record->warmup_end_us = DrillNowUs(epoch_us);
    if (tracer_ != nullptr) {
      tracer_->WarmupEnd(TraceNow(epoch_us), static_cast<uint64_t>(slot),
                         "1a");
    }
  }

  // --- The deadline: SIGKILL, no grace. ---
  SleepUntil(epoch_us, action.kill_at);
  supervisor_.Kill(primaries_[slot]);
  record->kill_us = DrillNowUs(epoch_us);
  if (tracer_ != nullptr) {
    tracer_->Revocation(TraceNow(epoch_us), static_cast<uint64_t>(slot),
                        kMarket);
  }

  if (ready_before_kill) {
    // Warm replacement takes over immediately: swap the slot's endpoint.
    members_->SetNode(static_cast<uint64_t>(slot), "127.0.0.1",
                      replacement.port);
    primaries_[slot] = replacement;
    record->new_port = replacement.port;
    record->replacement_ok = true;
    return;
  }

  // Dead slot until the replacement is warm: publish it dead so traffic
  // degrades to the backup instead of discovering the corpse.
  members_->MarkDead(static_cast<uint64_t>(slot));

  // --- Case 2: no warning — the spawn starts only now. ---
  if (!action.warned) {
    SpawnResult r = supervisor_.Spawn(
        "replacement-" + std::to_string(slot),
        {"--port=0", "--capacity-mb=" + std::to_string(config_.capacity_mb)});
    record->spawn_attempts = r.attempts;
    if (r.ok) {
      replacement = r.process;
      replacement_spawned = true;
      ready_at = Duration::Micros(DrillNowUs(epoch_us)) +
                 config_.replacement_boot_delay;
    } else if (tracer_ != nullptr) {
      tracer_->LaunchFailed(TraceNow(epoch_us), "process",
                            "replacement-" + std::to_string(slot));
    }
  }

  if (!replacement_spawned) {
    // Launch exhausted: the slot stays degraded (published dead, backup
    // serving hot keys) — graceful degradation, not a crash.
    if (tracer_ != nullptr) {
      tracer_->ReplacementFailed(TraceNow(epoch_us),
                                 static_cast<uint64_t>(slot));
    }
    return;
  }

  record->case_label = action.warned ? "1b" : "2";

  // --- Boot completes; stream the backup's hot items to the replacement. ---
  SleepUntil(epoch_us, ready_at);
  record->replacement_ready_us = DrillNowUs(epoch_us);
  if (tracer_ != nullptr) {
    tracer_->Launched(TraceNow(epoch_us), static_cast<uint64_t>(slot), kMarket,
                      "process", replacement.label);
  }
  const auto keys = hot_keys(slot);
  record->warmup_start_us = DrillNowUs(epoch_us);
  if (tracer_ != nullptr) {
    tracer_->WarmupStart(TraceNow(epoch_us), static_cast<uint64_t>(slot),
                         record->case_label, 0.0, 0.0, TraceNow(epoch_us));
  }
  WarmupStreamer streamer(config_.warmup);
  record->warmup = streamer.Stream("127.0.0.1", backup_.port, "127.0.0.1",
                                   replacement.port, keys);
  record->warmup_end_us = DrillNowUs(epoch_us);
  if (tracer_ != nullptr) {
    tracer_->WarmupEnd(TraceNow(epoch_us), static_cast<uint64_t>(slot),
                       record->case_label);
  }

  // Only now does the replacement join the ring (backup-serves-until-warm).
  members_->SetNode(static_cast<uint64_t>(slot), "127.0.0.1", replacement.port);
  primaries_[slot] = replacement;
  record->new_port = replacement.port;
  record->replacement_ok = true;
}

std::vector<RecoveryRecord> FleetController::ExecuteSchedule(
    const KillSchedule& schedule, const HotKeysFn& hot_keys,
    int64_t epoch_us) {
  std::vector<RecoveryRecord> records;
  records.reserve(schedule.actions.size());
  for (const KillAction& action : schedule.actions) {
    RecoveryRecord record;
    ExecuteAction(action, hot_keys, epoch_us, &record);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace spotcache::fleet
