// The per-slot procurement optimizer (paper §4.1).
//
// Minimizes   sum_o [ price_o * N_o * slot
//                     + eta * max(0, existing_o - N_o)
//                     + slot * (beta1 * x_o + beta2 * y_o) * M / L_o ]
// subject to  sum x_o = H,  sum y_o = alpha - H          (placement, eq. 1)
//             N_o * ram_o   >= (x_o + y_o) * M            (capacity)
//             N_o * lam_o   >= traffic share of (x_o, y_o) (throughput, eq. 2)
//             sum_{o in OD} (x_o + y_o) >= zeta * alpha    (availability)
//
// Footnote 3 generalizes the hot/cold split to K popularity bands, each a
// contiguous slice of the popularity-ranked key space with its own traffic
// density and bid-failure penalty. One LP builder serves both: hot/cold is
// the K = 2 call (band 0 hot with beta1, band 1 cold with beta2), and
// SolveClasses is the K-band call. bench_ablation_multiclass measures what
// the extra resolution buys.
//
// The integrality of N is relaxed to an LP (see simplex.h) and the result is
// rounded up — the problem is small enough that ceil-rounding loses only
// fractional-instance slack. The Mixing knob reproduces the OD+Spot_Sep
// baseline: the hottest band pinned to on-demand, the rest pinned to spot
// (when any is usable), with the availability floor disabled since
// separation itself is the availability story.

#pragma once

#include <vector>

#include "src/obs/obs.h"
#include "src/opt/procurement.h"
#include "src/opt/simplex.h"
#include "src/predict/spot_predictor.h"
#include "src/sim/latency_model.h"
#include "src/util/time.h"
#include "src/workload/zipf.h"

namespace spotcache {

enum class MixingPolicy {
  kMix,       // the paper's hot-cold mixing
  kSeparate,  // hot on OD only, cold on spot only (OD+Spot_Sep baseline)
};

struct OptimizerConfig {
  /// Fraction of the working set that must be in memory (1.0 = full store).
  double alpha = 1.0;
  /// Access coverage defining "hot" (footnote 3: 90%).
  double hot_coverage = 0.90;
  /// Minimum working-set fraction on on-demand instances (availability).
  double zeta = 0.10;
  /// Bid-failure penalty coefficients, $ per GB-hour over predicted lifetime.
  double beta1 = 0.5;   // hot data
  double beta2 = 0.02;  // cold data
  /// Deallocation damping, $ per instance removed. Must stay below typical
  /// spot hourly prices or the myopic slot problem never scales in (keeping
  /// always looks cheaper than one deallocation hit).
  double eta = 0.01;
  Duration slot = Duration::Hours(1);
  Duration mean_latency_target = Duration::Micros(800);
  /// Spot options predicted to live less than this are excluded outright.
  double min_spot_lifetime_hours = 1.0;
  MixingPolicy mixing = MixingPolicy::kMix;
  /// Carry the simplex basis from one slot's LP to the next: adjacent slots
  /// differ only in coefficients, so the previous optimum usually remains
  /// feasible and phase 1 is skipped (cold fallback otherwise; ~3x faster
  /// solves, see BENCH_perf.json). Off by default: at degenerate optima the
  /// warm path can land on a different equally-optimal vertex, which makes a
  /// slot's plan depend on solver history instead of being a pure function of
  /// its inputs — the objective is identical but figure-level outputs would
  /// no longer be bit-reproducible across replans. Enable when raw replan
  /// throughput matters more than trace-for-trace stability.
  bool warm_start = false;
};

/// Predicted demand and per-option state, parallel to the option set; both
/// LP entry points take these.
struct SlotState {
  double lambda_hat = 0.0;      // predicted arrivals, ops/s
  double working_set_gb = 0.0;  // predicted M-hat
  /// Spot feature predictions; entries for on-demand options are ignored.
  std::vector<SpotPrediction> spot_predictions;
  /// Instances currently held per option (N_t).
  std::vector<int> existing;
  /// Whether the option may be used this slot (e.g. current price <= bid).
  std::vector<bool> available;
};

/// Hot/cold inputs for one slot.
struct SlotInputs : SlotState {
  double hot_ws_fraction = 0.0;        // H: hot share of the working set
  double hot_access_fraction = 0.0;    // F(H)
  double alpha_access_fraction = 1.0;  // F(alpha)
};

/// One popularity band (bands are ordered hottest first; fractions are of
/// the full working set / access stream and sum to alpha / F(alpha)).
struct PopularityClass {
  double ws_fraction = 0.0;      // share of the working set in this band
  double access_fraction = 0.0;  // share of all accesses hitting this band
  /// Bid-failure penalty coefficient, $ per GB-hour over predicted lifetime
  /// (beta_1-like for hot bands, beta_2-like for cold ones).
  double loss_penalty = 0.0;
};

/// Cuts the key space at the given access-coverage levels (ascending, e.g.
/// {0.6, 0.9} -> three classes). Penalties interpolate from `hot_penalty`
/// for the first class down to `cold_penalty` for the last, proportional to
/// each class's access share. A minimum band size of `min_band_ws_fraction`
/// keeps LP coefficients conditioned.
std::vector<PopularityClass> MakePopularityClasses(
    const ZipfPopularity& popularity, const std::vector<double>& coverage_cuts,
    double alpha, double hot_penalty, double cold_penalty,
    double min_band_ws_fraction = 1e-4);

/// K-band inputs for one slot.
struct MultiClassInputs : SlotState {
  std::vector<PopularityClass> classes;
};

/// A K-band plan: each item's `x` is the hottest band's share and `y` the
/// rest's, so the hot/cold plan accessors apply unchanged.
struct MultiClassPlan : AllocationPlan {
  /// Per item, its working-set fraction of each band.
  std::vector<std::vector<double>> class_fractions;
};

class ProcurementOptimizer {
 public:
  ProcurementOptimizer(std::vector<ProcurementOption> options,
                       LatencyModel latency_model, OptimizerConfig config);

  const std::vector<ProcurementOption>& options() const { return options_; }
  const OptimizerConfig& config() const { return config_; }
  const LatencyModel& latency_model() const { return latency_model_; }

  /// Solves the hot/cold slot problem. Infeasible inputs yield
  /// plan.feasible == false.
  AllocationPlan Solve(const SlotInputs& inputs) const;

  /// Solves the K-band slot problem; no bands is infeasible.
  MultiClassPlan SolveClasses(const MultiClassInputs& inputs) const;

  /// lambda^{sb}: max per-instance rate under the hit-latency bound implied
  /// by the mean target and F(alpha).
  double MaxRatePerInstance(size_t option, double alpha_access_fraction) const;

  /// Usable cache GB per instance of an option.
  double UsableRamGb(size_t option) const;

  /// Attaches observability: each solve records wall-clock
  /// `optimizer/solve_ms` and counts solves / infeasible solves. Null
  /// detaches.
  void AttachObs(Obs* obs);

 private:
  MultiClassPlan SolveBands(const SlotState& state,
                            const std::vector<PopularityClass>& bands,
                            double alpha_access_fraction) const;

  std::vector<ProcurementOption> options_;
  LatencyModel latency_model_;
  OptimizerConfig config_;
  /// Basis of the previous slot's LP, threaded into the next solve when
  /// warm_start is on. Solve stays logically const; an optimizer instance is
  /// owned by one control loop and must not be shared across threads.
  mutable SimplexBasis warm_basis_;
  Histogram* solve_hist_ = nullptr;
  Counter* solves_ = nullptr;
  Counter* infeasible_ = nullptr;
};

}  // namespace spotcache
