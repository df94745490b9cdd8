// The evaluation harness: runs one procurement approach over one workload on
// the simulated cloud, producing the cost / performance numbers behind the
// paper's Figures 7, 9, 10, 12 and 13.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cloud/cloud_provider.h"
#include "src/core/cluster.h"
#include "src/core/controller.h"
#include "src/fault/fault_plan.h"
#include "src/obs/obs.h"
#include "src/resilience/resilience.h"
#include "src/sim/metrics.h"
#include "src/workload/workload_spec.h"

namespace spotcache {

/// The procurement approaches of paper Table 4 (plus the ODPeak strawman).
enum class Approach {
  kOdPeak,        // static peak provisioning, on-demand only
  kOdOnly,        // dynamic autoscaling, on-demand only
  kOdSpotSep,     // our spot modeling, hot/cold separation, no backup
  kOdSpotCdf,     // CDF spot modeling, hot/cold mixing, no backup
  kPropNoBackup,  // our spot modeling + mixing, no backup
  kProp,          // our spot modeling + mixing + burstable backup
};

std::string_view ToString(Approach a);
std::vector<Approach> AllApproaches();

/// Table 4 feature flags for an approach.
struct ApproachTraits {
  bool uses_spot = false;
  bool our_spot_model = false;  // lifetime model (vs CDF baseline)
  bool hot_cold_mixing = false;
  bool passive_backup = false;
  bool static_peak = false;
};
ApproachTraits TraitsOf(Approach a);

struct ExperimentConfig {
  WorkloadSpec workload;
  Approach approach = Approach::kPropNoBackup;
  /// Restrict the spot option space to these market names (empty = all four).
  std::vector<std::string> market_filter;
  uint64_t market_seed = 7;
  /// Bid levels as multiples of the market's on-demand price (§5.1: d, 5d).
  std::vector<double> bid_multipliers = {1.0, 5.0};
  OptimizerConfig optimizer;
  ClusterConfig cluster;
  Duration substep = Duration::Minutes(5);
  /// Reactive re-plan threshold: actual/predicted demand ratio above which
  /// the controller re-solves with observed values mid-slot.
  double reactive_threshold = 1.05;
  /// Deterministic fault schedule injected into the provider; an empty spec
  /// (the default) runs fault-free. Schedules are pure functions of
  /// (fault_seed, fault), so a run replays bit-identically from the config.
  FaultScenarioSpec fault;
  uint64_t fault_seed = 0x5eed;
  /// Market cooldown applied by the controller after each observed
  /// revocation (zero disables; see GlobalController::SetRevocationCooldown).
  Duration revocation_cooldown;
  /// Observability: when enabled, the run carries a metrics registry and an
  /// event tracer through every component, and the result holds the exported
  /// JSONL / CSV / Prometheus artifacts (also written to the configured
  /// paths). The JSONL and CSV exports contain only sim-time data, so two
  /// runs of the same (config, seed) produce byte-identical streams; the
  /// Prometheus snapshot additionally includes wall-clock timer histograms
  /// and is expected to vary run-to-run.
  ObsConfig obs;
  /// Request-path resilience: launch circuit breakers, in-step replacement
  /// retries, escalating market cooldowns, and admission-control shedding.
  /// Disabled by default; with it off every output is bit-identical to the
  /// pre-resilience harness.
  ResilienceConfig resilience;
};

/// Returns "" when the config is well-formed, else an actionable message.
/// RunExperiment calls this and throws std::invalid_argument on failure, so
/// malformed configs (NaN rates, zero-capacity types, inverted retry bounds)
/// fail loudly at load instead of corrupting a multi-day simulation.
std::string ValidateExperimentConfig(const ExperimentConfig& config);

struct SlotRecord {
  SimTime start;
  double lambda = 0.0;
  double lambda_hat = 0.0;
  double working_set_gb = 0.0;
  std::vector<int> counts;  // per option, post-apply
  int backups = 0;
  double cost = 0.0;  // ledger delta across the slot
  double affected_fraction = 0.0;
  double shed_fraction = 0.0;  // admission-control drops (resilience)
  Duration mean_latency;
  Duration p95_latency;
  int revocations = 0;
};

struct ExperimentResult {
  std::string approach_name;
  std::vector<std::string> option_labels;
  std::vector<SlotRecord> slots;
  SloTracker tracker;
  double total_cost = 0.0;
  double od_cost = 0.0;
  double spot_cost = 0.0;
  double backup_cost = 0.0;
  int revocations = 0;
  int bid_rejections = 0;
  /// Per-fault injection counters (all zero for fault-free runs).
  FaultCounters faults;
  int64_t launch_failures = 0;     // cluster-observed failed launches
  int64_t failed_replacements = 0; // revocations left uncovered by a launch

  /// Exported observability artifacts (empty when obs is disabled).
  std::string trace_jsonl;
  std::string metrics_csv;
  std::string metrics_prometheus;

  /// Index of an option by label; npos when absent.
  size_t OptionIndex(std::string_view label) const;
};

/// Runs the experiment; deterministic for a given config.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Builds the spot feature predictor an approach uses (null for OD-only).
std::unique_ptr<SpotFeaturePredictor> MakePredictor(Approach a);

}  // namespace spotcache
