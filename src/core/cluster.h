// Cluster actuation and slot-level performance accounting.
//
// Materializes each AllocationPlan into provider instances (launch / keep /
// terminate per option), maintains the burstable backup fleet for hot data on
// spot, reacts to revocation warnings by launching replacements, and converts
// the cluster state within each sub-step into the analytic latency / affected-
// traffic numbers the experiment harness records.
//
// Long-horizon experiments run at sub-step granularity (default 5 minutes);
// the key-level recovery dynamics of Figure 11 live in recovery_sim.h.

#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cloud/cloud_provider.h"
#include "src/obs/obs.h"
#include "src/opt/procurement.h"
#include "src/resilience/resilience.h"
#include "src/resilience/retry_policy.h"
#include "src/sim/latency_model.h"
#include "src/workload/zipf.h"

namespace spotcache {

struct ClusterConfig {
  /// Maintain a passive burstable backup of hot-on-spot content (Prop).
  bool use_backup = false;
  /// Burstable type used for backups; null selects t2.medium.
  const InstanceTypeSpec* backup_type = nullptr;
  LatencyModel latency_model{};
  /// Extra hop latency when a request is served by the backup during warm-up.
  Duration backup_hop_latency = Duration::Micros(250);
  /// Effective warm-from-back-end rate (Mbps): the back-end must not be
  /// flattened by recovery traffic, so warm-up reads are throttled.
  double backend_copy_mbps = 100.0;
  /// Fraction of line rate a warm-up copy stream achieves.
  double copy_efficiency = 0.7;
  /// Governs retries of failed replacement launches (injected transient
  /// outages). Without resilience only `initial_delay` matters — the shard
  /// stays degraded that long and the next reconciliation re-provisions,
  /// exactly the old fixed-timer behavior. With resilience attached, in-step
  /// retries follow the full policy (capped exponential backoff +
  /// decorrelated jitter, bounded attempts).
  RetryPolicyConfig replacement_retry;
};

/// Demand context attached to an applied plan.
struct SlotContext {
  double lambda = 0.0;          // planned arrival rate, ops/s
  double working_set_gb = 0.0;  // M-hat
  double hot_ws_fraction = 0.0;
  double hot_access_fraction = 0.0;
  double alpha_access_fraction = 1.0;
  double alpha = 1.0;
  /// GET share of the request stream; writes go through to the back-end
  /// (paper: read-heavy focus, write-through semantics).
  double read_fraction = 1.0;
};

class Cluster {
 public:
  Cluster(CloudProvider* provider, const std::vector<ProcurementOption>* options,
          ClusterConfig config);

  /// Reconciles holdings with `plan` at the provider's current time and
  /// resizes the backup fleet. Returns how many spot requests were rejected
  /// outright (bid below current price at request time).
  struct ApplyResult {
    int launched = 0;
    int terminated = 0;
    int bid_rejected = 0;
    int backup_count = 0;
    /// Launches rejected by an injected launch outage (not bid failures).
    int launch_failed = 0;
  };
  ApplyResult Apply(const AllocationPlan& plan, const SlotContext& context);

  /// Advances the provider to `to`, processing ready/warning/revocation
  /// events and updating degradation windows. Returns performance over the
  /// elapsed interval under `lambda_actual`.
  struct StepPerf {
    double affected_fraction = 0.0;  // of requests, failure-degraded
    Duration mean_latency;
    Duration p95_latency;
    double hit_fraction = 1.0;
    /// Fraction of arrivals shed by admission control (0 without resilience
    /// attached): backend-bound overload refused cold-first.
    double shed_fraction = 0.0;
    int revocations = 0;
    bool saturated = false;
    /// Options that lost an instance to revocation this step (with
    /// multiplicity) — feedback for the controller's market cooldown.
    std::vector<size_t> revoked_options;
  };
  StepPerf Step(SimTime to, double lambda_actual);

  /// Alive instance count per option (the optimizer's N_t for next slot).
  std::vector<int> ExistingCounts() const;

  const AllocationPlan& plan() const { return plan_; }
  const SlotContext& context() const { return context_; }
  int backup_count() const { return static_cast<int>(backups_.size()); }
  int total_revocations() const { return total_revocations_; }
  int total_bid_rejections() const { return total_bid_rejections_; }
  /// Fault-path bookkeeping (all zero without an attached fault injector).
  int total_launch_failures() const { return total_launch_failures_; }
  int backup_losses() const { return backup_losses_; }
  int failed_replacements() const { return failed_replacements_; }

  /// Terminates everything (end of experiment).
  void Shutdown();

  /// Attaches observability (null detaches): Apply updates launch/terminate
  /// counters and the backup-fleet gauge; HandleRevocation traces warm-up
  /// windows with the paper's Fig 4 case labels (1a / 1b / 2). With
  /// resilience attached it also publishes breaker transitions, retries and
  /// sheds (the `resilience/*` counters and trace events).
  void AttachObs(Obs* obs);

  /// Applies `config`. When enabled, failed replacement launches are retried
  /// *within* Step under the `replacement_retry` policy (gated by a circuit
  /// breaker per market option), and backend-bound overload is shed
  /// cold-first by PlanShed. When disabled, behavior is bit-identical to the
  /// pre-resilience model.
  void AttachResilience(const ResilienceConfig& config);

  /// Replacement retries still pending (tests/diagnostics).
  size_t pending_replacements() const { return pending_.size(); }
  /// The launch breaker of market option `option`; null until resilience
  /// has recorded a replacement launch on it (tests/diagnostics).
  const CircuitBreaker* option_breaker(size_t option) const {
    const auto it = option_breakers_.find(option);
    return it == option_breakers_.end() ? nullptr : &it->second;
  }

  /// Instance ids held per option (parallel to the option vector).
  const std::vector<std::vector<InstanceId>>& holdings() const {
    return holdings_;
  }
  const std::vector<InstanceId>& backup_ids() const { return backups_; }

 private:
  struct Degradation {
    SimTime until;
    double traffic_fraction = 0.0;  // of all arrivals
    Duration served_latency;        // latency those requests experience
    /// Where the degraded traffic lands (drives admission shedding): backend
    /// entries are sheddable, backup-served ones are not.
    bool backend = false;
    /// Cold-pool traffic (shed before hot when the backend overloads).
    bool cold = false;
  };

  /// One failed replacement launch awaiting an in-step retry (only populated
  /// with resilience attached).
  struct PendingReplacement {
    size_t option = 0;
    const InstanceTypeSpec* type = nullptr;
    std::string tag;
    uint64_t op_id = 0;  // revoked instance id: keys the retry schedule
    int attempts = 0;
    SimTime next_attempt;
    double hot_gb = 0.0;
    double cold_gb = 0.0;
    double hot_traffic = 0.0;
    double cold_traffic = 0.0;
  };

  const InstanceTypeSpec& BackupType() const;
  double TrafficWeight(const AllocationItem& item) const;
  void HandleWarning(const Instance& inst);
  void HandleRevocation(const Instance& inst);
  /// Pushes the interim-gap and warm-up degradation windows for a replacement
  /// of `type` becoming ready at `ready`, and emits the warm-up trace.
  void ScheduleWarmup(const InstanceTypeSpec& type, uint64_t inst_id,
                      const char* warmup_case, double hot_gb, double cold_gb,
                      double hot_traffic, double cold_traffic, SimTime now,
                      SimTime ready);
  /// Marks a shard degraded until the next retry horizon after a failed
  /// replacement launch.
  void PushFailureDegradations(SimTime until, double hot_traffic,
                               double cold_traffic);
  /// Retries pending replacement launches due by `now` (resilience only).
  void RetryPendingReplacements(SimTime now);
  /// The option's launch breaker, created closed on first use.
  CircuitBreaker& OptionBreaker(size_t option);
  /// Feeds one replacement-launch outcome into the option's breaker and
  /// publishes any transition it caused (trace event + trip/close counters).
  void RecordLaunchOutcome(size_t option, SimTime now, bool ok);
  /// Publishes one scheduled replacement retry (counter + trace event).
  void CountRetry(SimTime now, uint64_t op_id, int attempt, Duration delay);
  /// Copy rate (Mbps) available for warming from the backup fleet at `now`
  /// over an estimated window; consumes backup network tokens.
  double BackupCopyMbps(SimTime from, Duration window, double demand_mbps);

  CloudProvider* provider_;
  const std::vector<ProcurementOption>* options_;
  ClusterConfig config_;

  AllocationPlan plan_;
  SlotContext context_;
  std::vector<std::vector<InstanceId>> holdings_;  // per option
  std::vector<InstanceId> backups_;
  std::vector<InstanceId> replacements_;
  std::unordered_map<InstanceId, InstanceId> replacement_for_;  // spot -> repl
  std::vector<Degradation> degradations_;
  std::vector<PendingReplacement> pending_;
  int total_revocations_ = 0;
  int total_bid_rejections_ = 0;
  int step_revocations_ = 0;
  int total_launch_failures_ = 0;
  int backup_losses_ = 0;
  int failed_replacements_ = 0;
  std::vector<size_t> step_revoked_options_;

  std::optional<ResilienceConfig> resilience_;  // set when enabled
  RetryPolicy replacement_policy_;
  std::map<size_t, CircuitBreaker> option_breakers_;

  Obs* obs_ = nullptr;
  Counter* launched_ = nullptr;
  Counter* terminated_ = nullptr;
  Counter* bid_rejected_ = nullptr;
  Counter* launch_failed_ = nullptr;
  Gauge* backups_gauge_ = nullptr;
  // Resolved only with resilience attached, so legacy exports are unchanged.
  Counter* breaker_trips_ = nullptr;
  Counter* breaker_closes_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* sheds_ = nullptr;
};

}  // namespace spotcache
