// The global controller (paper §4.2): each control slot it
//   1. updates workload predictions (AR(2) over observed lambda and M),
//   2. queries the configured spot feature predictor per (market, bid),
//   3. solves the procurement optimization,
// and additionally offers a reactive re-plan for mid-slot surprises (flash
// crowds, revocations) — the hierarchical predictive+reactive split the paper
// describes.

#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/opt/optimizer.h"
#include "src/predict/spot_predictor.h"
#include "src/predict/workload_predictor.h"
#include "src/resilience/retry_policy.h"
#include "src/workload/zipf.h"

namespace spotcache {

class GlobalController {
 public:
  /// `predictor` may be null for approaches that never use spot (ODOnly).
  GlobalController(ProcurementOptimizer optimizer,
                   std::unique_ptr<SpotFeaturePredictor> predictor);

  const ProcurementOptimizer& optimizer() const { return optimizer_; }
  const std::vector<ProcurementOption>& options() const {
    return optimizer_.options();
  }

  /// Feeds the previous slot's observed workload into the predictors.
  void ObserveSlot(double lambda, double working_set_gb);

  /// Reactive market cooldown: after an observed revocation on `option`,
  /// the controller treats that option as unavailable until now + cooldown.
  /// Correlated revocation storms thus push the plan onto on-demand (and
  /// other markets) instead of immediately re-buying into the storm. A zero
  /// cooldown (the default) disables the mechanism.
  void SetRevocationCooldown(Duration cooldown) { revocation_cooldown_ = cooldown; }
  Duration revocation_cooldown() const { return revocation_cooldown_; }
  void NoteRevocation(size_t option, SimTime now);
  /// Whether `option` is currently in cooldown.
  bool InCooldown(size_t option, SimTime now) const;

  /// Escalating cooldowns (resilience): successive revocations of the
  /// same option *while it is still cooling* lengthen the cooldown under the
  /// retry policy (initial_delay should be the base revocation cooldown);
  /// a revocation after the option recovered resets the escalation.
  void EnableCooldownBackoff(const RetryPolicyConfig& config, uint64_t seed);
  /// Current escalation streak for an option (tests/diagnostics).
  int CooldownStreak(size_t option) const;

  /// Predicted workload for the upcoming slot (persistence until enough
  /// history accumulates).
  double PredictLambda() const { return lambda_predictor_.Predict(); }
  double PredictWorkingSetGb() const { return ws_predictor_.Predict(); }

  /// Builds the optimizer inputs at `now` for the given popularity profile
  /// and current holdings, then solves. `lambda` / `ws_gb` are the demand
  /// values to plan for (predictions for the proactive plan, observed actuals
  /// for a reactive re-plan).
  AllocationPlan Plan(SimTime now, double lambda, double ws_gb,
                      const ZipfPopularity& popularity,
                      const std::vector<int>& existing) const;

  /// Convenience: the slot inputs Plan() would use (exposed for tests).
  SlotInputs BuildInputs(SimTime now, double lambda, double ws_gb,
                         const ZipfPopularity& popularity,
                         const std::vector<int>& existing) const;

  /// Attaches observability (null detaches): Plan records wall-clock
  /// `controller/plan_ms` and a plan counter, NoteRevocation traces market
  /// cooldowns; the optimizer's solve timer is attached alongside.
  void AttachObs(Obs* obs);

 private:
  ProcurementOptimizer optimizer_;
  std::unique_ptr<SpotFeaturePredictor> spot_predictor_;
  Ar2Predictor lambda_predictor_;
  Ar2Predictor ws_predictor_;
  Duration revocation_cooldown_;  // zero = disabled
  std::unordered_map<size_t, SimTime> cooldown_until_;
  std::optional<RetryPolicy> cooldown_policy_;  // escalating cooldowns
  std::unordered_map<size_t, int> cooldown_streak_;
  Obs* obs_ = nullptr;
  Histogram* plan_hist_ = nullptr;
  Counter* plans_ = nullptr;
  Counter* cooldowns_ = nullptr;
};

}  // namespace spotcache
