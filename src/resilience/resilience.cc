#include "src/resilience/resilience.h"

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

ShedSplit PlanShed(const AdmissionConfig& config, double backend_ops,
                   double total_ops, double hot_ops, double cold_ops) {
  if (backend_ops <= config.backend_capacity_ops || backend_ops <= 0.0) {
    return ShedSplit{};
  }
  const double sheddable = hot_ops + cold_ops;
  if (sheddable <= 0.0) {
    return ShedSplit{};
  }
  double needed_ops = backend_ops - config.backend_capacity_ops;
  if (total_ops > 0.0) {
    // Budget guard: shed ops <= shed_budget * total offered ops.
    needed_ops = std::min(needed_ops, config.shed_budget * total_ops);
  }
  // Only the sheddable classes can absorb the overflow; clamp at all of it.
  const double needed = std::min(1.0, needed_ops / sheddable);
  const double hot_share = hot_ops / sheddable;
  const double cold_share = cold_ops / sheddable;

  // Cold-first split: the cold pool saturates at rate
  // min(1, needed / cold_share) before the hot pool sheds at all.
  ShedSplit split;
  if (needed <= 0.0) {
    return split;
  }
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

std::string ValidateResilienceConfig(const ResilienceConfig& config) {
  if (std::string err = Validate(config.breaker); !err.empty()) {
    return err;
  }
  return Validate(config.admission);
}

}  // namespace spotcache
