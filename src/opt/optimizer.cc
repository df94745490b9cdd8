#include "src/opt/optimizer.h"

#include <algorithm>
#include <cmath>

#include "src/opt/simplex.h"

namespace spotcache {

std::vector<PopularityClass> MakePopularityClasses(
    const ZipfPopularity& popularity, const std::vector<double>& coverage_cuts,
    double alpha, double hot_penalty, double cold_penalty,
    double min_band_ws_fraction) {
  std::vector<PopularityClass> classes;
  const double alpha_access = popularity.AccessFraction(alpha);

  double prev_ws = 0.0;
  double prev_access = 0.0;
  for (double cut : coverage_cuts) {
    const double ws = std::min(
        alpha, std::max(popularity.KeyFractionForCoverage(cut),
                        prev_ws + min_band_ws_fraction));
    const double access = popularity.AccessFraction(ws);
    PopularityClass band;
    band.ws_fraction = ws - prev_ws;
    band.access_fraction = std::max(0.0, access - prev_access);
    classes.push_back(band);
    prev_ws = ws;
    prev_access = access;
    if (ws >= alpha) {
      break;
    }
  }
  // The residual cold band up to alpha.
  if (prev_ws < alpha) {
    PopularityClass band;
    band.ws_fraction = alpha - prev_ws;
    band.access_fraction = std::max(0.0, alpha_access - prev_access);
    classes.push_back(band);
  }

  // Penalties: scale from hot to cold by each band's traffic density relative
  // to the hottest band's (denser bands hurt more when lost).
  double max_density = 0.0;
  for (const auto& band : classes) {
    if (band.ws_fraction > 0.0) {
      max_density = std::max(max_density, band.access_fraction / band.ws_fraction);
    }
  }
  for (auto& band : classes) {
    const double density =
        band.ws_fraction > 0.0 ? band.access_fraction / band.ws_fraction : 0.0;
    const double rel = max_density > 0.0 ? density / max_density : 0.0;
    band.loss_penalty = cold_penalty + (hot_penalty - cold_penalty) * rel;
  }
  return classes;
}

ProcurementOptimizer::ProcurementOptimizer(std::vector<ProcurementOption> options,
                                           LatencyModel latency_model,
                                           OptimizerConfig config)
    : options_(std::move(options)),
      latency_model_(latency_model),
      config_(config) {}

double ProcurementOptimizer::MaxRatePerInstance(size_t option,
                                                double alpha_access_fraction) const {
  const Duration l_hit = latency_model_.HitBoundFor(config_.mean_latency_target,
                                                    alpha_access_fraction);
  return latency_model_.MaxRate(options_[option].type->capacity, l_hit);
}

double ProcurementOptimizer::UsableRamGb(size_t option) const {
  return options_[option].type->capacity.ram_gb * kRamUsableFraction;
}

void ProcurementOptimizer::AttachObs(Obs* obs) {
  if (obs == nullptr) {
    solve_hist_ = nullptr;
    solves_ = nullptr;
    infeasible_ = nullptr;
    return;
  }
  solve_hist_ = obs->registry.GetHistogram("optimizer/solve_ms");
  solves_ = obs->registry.GetCounter("optimizer/solves");
  infeasible_ = obs->registry.GetCounter("optimizer/infeasible_solves");
}

AllocationPlan ProcurementOptimizer::Solve(const SlotInputs& inputs) const {
  PopularityClass hot;
  hot.ws_fraction = inputs.hot_ws_fraction;
  hot.access_fraction = inputs.hot_access_fraction;
  hot.loss_penalty = config_.beta1;
  PopularityClass cold;
  cold.ws_fraction = std::max(0.0, config_.alpha - inputs.hot_ws_fraction);
  cold.access_fraction = std::max(
      0.0, inputs.alpha_access_fraction - inputs.hot_access_fraction);
  cold.loss_penalty = config_.beta2;
  return SolveBands(inputs, {hot, cold}, inputs.alpha_access_fraction);
}

MultiClassPlan ProcurementOptimizer::SolveClasses(
    const MultiClassInputs& inputs) const {
  double total_access = 0.0;
  for (const auto& band : inputs.classes) {
    total_access += band.access_fraction;
  }
  return SolveBands(inputs, inputs.classes, std::min(1.0, total_access));
}

MultiClassPlan ProcurementOptimizer::SolveBands(
    const SlotState& state, const std::vector<PopularityClass>& bands,
    double alpha_access_fraction) const {
  SPOTCACHE_TIMED(solve_hist_);
  if (solves_ != nullptr) {
    solves_->Increment();
  }
  MultiClassPlan plan;
  const size_t n_opts = options_.size();
  const size_t n_bands = bands.size();
  if (state.spot_predictions.size() != n_opts ||
      state.existing.size() != n_opts || state.available.size() != n_opts ||
      n_bands == 0) {
    return plan;
  }

  const double m_hat = state.working_set_gb;
  std::vector<double> band_gb(n_bands);
  double total_gb = 0.0;
  for (size_t c = 0; c < n_bands; ++c) {
    band_gb[c] = bands[c].ws_fraction * m_hat;
    total_gb += band_gb[c];
  }
  if (m_hat <= 0.0 || total_gb <= 0.0) {
    plan.feasible = true;  // nothing to place
    return plan;
  }

  // Traffic density (ops/s per GB) of each band.
  std::vector<double> density(n_bands, 0.0);
  for (size_t c = 0; c < n_bands; ++c) {
    if (band_gb[c] > 0.0) {
      density[c] = (state.lambda_hat * bands[c].access_fraction) / band_gb[c];
    }
  }

  // Select usable options and precompute their LP coefficients.
  struct Usable {
    size_t opt;
    double price;     // $/instance-hour expected this slot
    double ram_gb;    // usable cache capacity
    double max_rate;  // lambda^{sb}
    double life_h;    // predicted spot lifetime (unused for on-demand)
    bool on_demand;
  };
  std::vector<Usable> usable;
  const double slot_hours = config_.slot.hours();
  bool any_spot = false;
  for (size_t o = 0; o < n_opts; ++o) {
    if (!state.available[o]) {
      continue;
    }
    Usable u;
    u.opt = o;
    u.on_demand = options_[o].is_on_demand();
    u.ram_gb = UsableRamGb(o);
    u.max_rate = MaxRatePerInstance(o, alpha_access_fraction);
    u.life_h = 0.0;
    if (u.max_rate <= 0.0 || u.ram_gb <= 0.0) {
      continue;
    }
    if (u.on_demand) {
      u.price = options_[o].type->od_price_per_hour;
    } else {
      const SpotPrediction& pred = state.spot_predictions[o];
      if (!pred.usable ||
          pred.lifetime.hours() < config_.min_spot_lifetime_hours) {
        continue;
      }
      u.life_h = std::max(pred.lifetime.hours(), 1e-3);
      u.price = pred.avg_price;
      any_spot = true;
    }
    usable.push_back(u);
  }
  if (usable.empty()) {
    if (infeasible_ != nullptr) {
      infeasible_->Increment();
    }
    return plan;
  }

  const bool separate = config_.mixing == MixingPolicy::kSeparate;

  // Variables per usable option: [g_0 .. g_{K-1} (GB per band),
  // n (instances), d (deallocation slack, instances)].
  const size_t stride = n_bands + 2;
  LinearProgram lp(usable.size() * stride);
  auto gg = [stride](size_t i, size_t c) { return stride * i + c; };
  auto nn = [stride, n_bands](size_t i) { return stride * i + n_bands; };
  auto dd = [stride, n_bands](size_t i) { return stride * i + n_bands + 1; };

  std::vector<std::vector<std::pair<size_t, double>>> band_sums(n_bands);
  std::vector<std::pair<size_t, double>> od_data;
  for (size_t i = 0; i < usable.size(); ++i) {
    const Usable& u = usable[i];
    // Capacity: ram*n - sum g_c >= 0.  Throughput: lam*n - sum r_c*g_c >= 0.
    std::vector<std::pair<size_t, double>> capacity{{nn(i), u.ram_gb}};
    std::vector<std::pair<size_t, double>> throughput{{nn(i), u.max_rate}};
    for (size_t c = 0; c < n_bands; ++c) {
      lp.SetObjective(gg(i, c), u.on_demand ? 0.0
                                            : (bands[c].loss_penalty * slot_hours) /
                                                  u.life_h);
      band_sums[c].push_back({gg(i, c), 1.0});
      if (u.on_demand) {
        od_data.push_back({gg(i, c), 1.0});
      }
      capacity.push_back({gg(i, c), -1.0});
      throughput.push_back({gg(i, c), -density[c]});
    }
    lp.SetObjective(nn(i), u.price * slot_hours);
    lp.SetObjective(dd(i), config_.eta);
    lp.AddGreaterEqual(capacity, 0.0);
    lp.AddGreaterEqual(throughput, 0.0);
    // Deallocation slack: n + d >= existing.
    lp.AddGreaterEqual({{nn(i), 1.0}, {dd(i), 1.0}},
                       static_cast<double>(state.existing[u.opt]));

    if (separate) {
      if (!u.on_demand) {
        lp.AddEquality({{gg(i, 0), 1.0}}, 0.0);  // hottest band never on spot
      } else if (any_spot) {
        for (size_t c = 1; c < n_bands; ++c) {
          // The rest never on OD when spot exists.
          lp.AddEquality({{gg(i, c), 1.0}}, 0.0);
        }
      }
    }
  }

  for (size_t c = 0; c < n_bands; ++c) {
    lp.AddEquality(band_sums[c], band_gb[c]);
  }
  if (!separate && config_.zeta > 0.0) {
    lp.AddGreaterEqual(od_data, config_.zeta * total_gb);
  }

  const LinearProgram::Solution sol =
      config_.warm_start ? lp.Solve(&warm_basis_) : lp.Solve();
  if (!sol.feasible) {
    if (infeasible_ != nullptr) {
      infeasible_->Increment();
    }
    return plan;
  }

  plan.feasible = true;
  plan.lp_objective = sol.objective;
  for (size_t i = 0; i < usable.size(); ++i) {
    AllocationItem item;
    item.option = usable[i].opt;
    item.count = static_cast<int>(std::ceil(sol.x[nn(i)] - 1e-6));
    std::vector<double> fractions(n_bands);
    bool has_data = false;
    for (size_t c = 0; c < n_bands; ++c) {
      fractions[c] = sol.x[gg(i, c)] / m_hat;
      (c == 0 ? item.x : item.y) += fractions[c];
      has_data = has_data || fractions[c] > 1e-12;
    }
    if (item.count > 0 || has_data) {
      // Data with no instance (LP degeneracies) gets one instance to live on.
      if (item.count == 0) {
        item.count = 1;
      }
      plan.items.push_back(item);
      plan.class_fractions.push_back(std::move(fractions));
    }
  }
  return plan;
}

}  // namespace spotcache
