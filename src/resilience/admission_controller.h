// Admission control for the bottom of the degradation ladder.
//
// When enough of the cluster is degraded that backend-bound traffic exceeds
// the backend's capacity, some requests must be shed rather than queued into
// collapse. Shedding is *cold-first*: the cold pool's traffic is sacrificed
// before any hot-pool request is refused, matching the paper's premise that
// the hot working set carries most of the hit value.
//
// PlanShed is analytic, for the Cluster step model: given offered
// backend-bound load and the hot/cold weights, it returns the fraction of
// each pool to shed (cold saturates first), capped so total shed ops never
// exceed shed_budget of offered traffic.

#pragma once

#include <string>

namespace spotcache {

struct AdmissionConfig {
  /// Hard ceiling on the fraction of offered requests that may be dropped.
  double shed_budget = 0.05;
  /// Backend sustainable throughput (ops/s); admission sheds when
  /// backend-bound load exceeds this.
  double backend_capacity_ops = 50'000.0;
};

/// Returns "" when valid, else an actionable message.
std::string Validate(const AdmissionConfig& config);

/// Fraction of each pool's backend-bound traffic to shed.
struct ShedSplit {
  double cold = 0.0;  // fraction of cold-pool traffic shed
  double hot = 0.0;   // fraction of hot-pool traffic shed
  /// Overall shed fraction of the sheddable (hot + cold) load.
  double overall = 0.0;
};

class AdmissionController {
 public:
  AdmissionController() = default;
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  const AdmissionConfig& config() const { return config_; }

  /// Analytic cold-first split. `backend_ops` is the total backend-bound
  /// load (ops/s) out of `total_ops` offered to the whole system; `hot_ops`
  /// and `cold_ops` are the *sheddable* portions of that load (writes etc.
  /// are backend-bound but never shed). The returned per-class rates absorb
  /// the overflow beyond backend capacity, cold first, capped so shed ops
  /// never exceed shed_budget * total_ops.
  ShedSplit PlanShed(double backend_ops, double total_ops, double hot_ops,
                     double cold_ops) const;

 private:
  /// Cold-first split of a total shed `needed` in [0, 1]: cold saturates at
  /// rate min(1, needed / cold_share) before hot sheds at all.
  ShedSplit Split(double needed, double hot_share, double cold_share) const;

  AdmissionConfig config_;
};

}  // namespace spotcache
