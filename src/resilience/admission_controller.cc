#include "src/resilience/admission_controller.h"

#include <algorithm>
#include <cmath>

namespace spotcache {

std::string Validate(const AdmissionConfig& config) {
  if (!std::isfinite(config.shed_budget) || config.shed_budget < 0.0 ||
      config.shed_budget > 1.0) {
    return "admission shed_budget must be in [0, 1]";
  }
  if (!std::isfinite(config.backend_capacity_ops) ||
      config.backend_capacity_ops <= 0.0) {
    return "admission backend_capacity_ops must be positive and finite";
  }
  return "";
}

ShedSplit AdmissionController::Split(double needed, double hot_share,
                                     double cold_share) const {
  ShedSplit split;
  needed = std::clamp(needed, 0.0, 1.0);
  if (needed <= 0.0) {
    return split;
  }
  // Cold pool absorbs the shed first; only once it is fully refused does the
  // hot pool start shedding.
  if (cold_share > 0.0) {
    split.cold = std::min(1.0, needed / cold_share);
  }
  const double remaining = needed - cold_share * split.cold;
  if (remaining > 0.0 && hot_share > 0.0) {
    split.hot = std::clamp(remaining / hot_share, 0.0, 1.0);
  }
  split.overall = cold_share * split.cold + hot_share * split.hot;
  return split;
}

ShedSplit AdmissionController::PlanShed(double backend_ops, double total_ops,
                                        double hot_ops,
                                        double cold_ops) const {
  if (backend_ops <= config_.backend_capacity_ops || backend_ops <= 0.0) {
    return ShedSplit{};
  }
  const double sheddable = hot_ops + cold_ops;
  if (sheddable <= 0.0) {
    return ShedSplit{};
  }
  double needed_ops = backend_ops - config_.backend_capacity_ops;
  if (total_ops > 0.0) {
    // Budget guard: shed ops <= shed_budget * total offered ops.
    needed_ops = std::min(needed_ops, config_.shed_budget * total_ops);
  }
  // Only the sheddable classes can absorb the overflow; clamp at all of it.
  const double needed = std::min(1.0, needed_ops / sheddable);
  return Split(needed, hot_ops / sheddable, cold_ops / sheddable);
}

}  // namespace spotcache
