#include "src/core/recovery_sim.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/cloud/burstable.h"
#include "src/workload/zipf.h"

namespace spotcache {

namespace {
constexpr double kBytesPerGb = 1024.0 * 1024.0 * 1024.0;

double GbToMegabits(double gb) { return gb * kBytesPerGb * 8.0 / 1e6; }

double MbpsToGbPerSecond(double mbps) { return mbps * 1e6 / 8.0 / kBytesPerGb; }
}  // namespace

RecoveryResult SimulateRecovery(const RecoveryConfig& config) {
  static const InstanceCatalog catalog = InstanceCatalog::Default();
  const InstanceTypeSpec* repl = config.replacement_type != nullptr
                                     ? config.replacement_type
                                     : catalog.Find("m4.xlarge");

  RecoveryResult result;
  const LatencyModel model(config.latency);

  const uint64_t total_keys = std::max<uint64_t>(
      1, static_cast<uint64_t>(config.data_gb * kBytesPerGb / config.item_bytes));
  const ZipfPopularity popularity(total_keys, config.zipf_theta);
  const double hot_key_fraction =
      std::clamp(config.hot_gb / config.data_gb, 0.0, 1.0);
  const double hot_traffic = popularity.AccessFraction(hot_key_fraction);
  const double cold_gb = config.data_gb - config.hot_gb;

  std::optional<BurstableState> backup_state;
  if (config.backup_type != nullptr) {
    result.backup_cost_per_hour = config.backup_type->od_price_per_hour;
    if (config.backup_type->is_burstable()) {
      backup_state.emplace(*config.backup_type, config.initial_credit_fraction);
    }
  }
  const bool has_backup = config.backup_type != nullptr;

  Obs* obs = config.obs;
  if (obs != nullptr) {
    obs->registry.GetCounter("recovery/runs")->Increment();
    obs->tracer.Custom(
        SimTime(), "recovery_start",
        {{"data_gb", EventTracer::JsonNumber(config.data_gb)},
         {"hot_gb", EventTracer::JsonNumber(config.hot_gb)},
         {"backup",
          EventTracer::JsonString(has_backup ? config.backup_type->name : "")},
         {"replacement_delay_s",
          EventTracer::JsonNumber(config.replacement_delay.seconds())}});
  }
  bool exhaustion_traced = false;

  // Warm-up frontiers, in popularity (MRU) order within each class. The hot
  // prefix streams from the backup; the cold suffix refills from the
  // (throttled) back-end in parallel. Without a backup everything refills
  // from the back-end through a single frontier. In separation mode the hot
  // prefix never left memory.
  double hot_warmed_gb = config.separation_mode ? config.hot_gb : 0.0;
  double cold_warmed_gb = 0.0;
  const bool backup_warms = has_backup && !config.separation_mode;
  // Fault-injection state: the backup can die or lose its tokens mid-warmup.
  bool backup_alive = true;
  bool tokens_drained = false;

  const Duration miss_latency =
      config.latency.base_latency + config.latency.miss_penalty;

  // Latency samples over the *hot* affected content (the traffic the backup
  // exists to protect) accumulated until settling, for the recovery p95.
  std::vector<std::pair<double, double>> recovery_mixture;
  bool settled = false;
  result.warmup_time = config.horizon;

  const double epoch_s = config.epoch.seconds();
  const double repl_mbps = repl->capacity.net_mbps * config.copy_efficiency;

  for (SimTime t; t < SimTime() + config.horizon; t += config.epoch) {
    const SimTime t_end = t + config.epoch;
    const bool repl_ready = t >= SimTime() + config.replacement_delay;

    // --- Injected faults due this epoch.
    if (config.backup_loss_at.has_value() && backup_alive &&
        t >= SimTime() + *config.backup_loss_at) {
      backup_alive = false;
      result.backup_lost = has_backup;
      if (obs != nullptr && has_backup) {
        obs->registry.GetCounter("recovery/backup_losses")->Increment();
        obs->tracer.BackupLoss(t, 0);
      }
    }
    if (config.token_drain_at.has_value() && !tokens_drained && backup_state &&
        t >= SimTime() + *config.token_drain_at) {
      backup_state->Drain(t);
      tokens_drained = true;
      if (obs != nullptr && !exhaustion_traced) {
        exhaustion_traced = true;
        obs->registry.GetCounter("recovery/token_exhaustions")->Increment();
        obs->tracer.TokenExhaustion(t, 0, "recovery");
      }
    }
    const bool backup_ok = backup_warms && backup_alive;

    // --- Copy progress this epoch (two parallel streams).
    double backup_copy_mbps = 0.0;
    if (repl_ready) {
      if (backup_ok && hot_warmed_gb < config.hot_gb) {
        double src_mbps;
        if (backup_state) {
          src_mbps = backup_state->RunNetwork(
              t, t_end, repl_mbps / config.copy_efficiency);
          if (src_mbps <= config.backup_type->baseline_net_mbps * 1.001 &&
              config.backup_type->baseline_net_mbps <
                  config.backup_type->capacity.net_mbps) {
            result.backup_tokens_exhausted = true;
          }
        } else {
          src_mbps = config.backup_type->capacity.net_mbps;
        }
        backup_copy_mbps = std::min(repl_mbps, src_mbps * config.copy_efficiency);
        hot_warmed_gb = std::min(
            config.hot_gb,
            hot_warmed_gb + MbpsToGbPerSecond(backup_copy_mbps) * epoch_s);
      }
      // Back-end stream: cold data (or, without a backup, the single frontier
      // that must also cover the hot prefix first).
      const double backend_gbps = MbpsToGbPerSecond(
          std::min(config.backend_copy_mbps, repl->capacity.net_mbps));
      if (backup_ok || config.separation_mode) {
        cold_warmed_gb =
            std::min(cold_gb, cold_warmed_gb + backend_gbps * epoch_s);
      } else if (config.checkpoint_restore) {
        // Checkpoint restore streams the shard in storage order: hot and
        // cold progress proportionally to their sizes (no popularity
        // preference), at the sequential restore rate.
        const double restore_gbps = MbpsToGbPerSecond(
            std::min(config.checkpoint_restore_mbps, repl->capacity.net_mbps));
        const double hot_share = config.hot_gb / config.data_gb;
        hot_warmed_gb = std::min(
            config.hot_gb, hot_warmed_gb + restore_gbps * hot_share * epoch_s);
        cold_warmed_gb = std::min(
            cold_gb, cold_warmed_gb + restore_gbps * (1.0 - hot_share) * epoch_s);
      } else {
        // No backup: back-end refills hot first, then cold.
        if (hot_warmed_gb < config.hot_gb) {
          hot_warmed_gb =
              std::min(config.hot_gb, hot_warmed_gb + backend_gbps * epoch_s);
        } else {
          cold_warmed_gb =
              std::min(cold_gb, cold_warmed_gb + backend_gbps * epoch_s);
        }
      }
    }

    // --- Traffic decomposition. The warm-up streams scan their class in
    // storage order, which is uncorrelated with instantaneous popularity
    // *within* a class, so covered traffic grows linearly with copied bytes
    // inside each class; the skew acts through the hot/cold traffic split
    // (F(hot) vs 1-F(hot)), which is exactly the cross-skew effect Figure
    // 11(b) reports.
    const double hot_progress =
        config.hot_gb > 0.0 ? hot_warmed_gb / config.hot_gb : 1.0;
    const double hot_covered = hot_traffic * hot_progress;
    const double cold_progress = cold_gb > 0.0 ? cold_warmed_gb / cold_gb : 1.0;
    const double cold_covered = (1.0 - hot_traffic) * cold_progress;
    const double covered = repl_ready ? hot_covered + cold_covered : 0.0;

    double to_repl = covered;
    double uncovered_hot = std::max(0.0, hot_traffic - hot_covered);
    if (config.separation_mode) {
      // Hot content never left memory: served at normal latency regardless.
      to_repl = std::max(covered, hot_traffic);
      uncovered_hot = 0.0;
    }
    const double uncovered_cold =
        std::max(0.0, 1.0 - hot_traffic - (repl_ready ? cold_covered : 0.0));

    // First-touch requests to uncopied hot items go to the backup (when one
    // exists); everything else uncovered goes to the back-end.
    double to_backup = 0.0;
    double to_backend = uncovered_cold;
    if (backup_ok) {
      to_backup = uncovered_hot;
    } else {
      to_backend += uncovered_hot;
    }

    // Admission control over the backend-bound interim stream: when the
    // uncovered load exceeds the backend's capacity, shed cold-first within
    // the shed budget. Shed requests are dropped (they leave the latency
    // mixture) and reported per epoch as shed_fraction.
    double shed_fraction = 0.0;
    if (config.admission.has_value() && to_backend > 0.0) {
      const double cold_bound = uncovered_cold;
      const double hot_bound = to_backend - uncovered_cold;
      const ShedSplit split = PlanShed(
          *config.admission, config.arrival_rate * to_backend,
          config.arrival_rate, config.arrival_rate * hot_bound,
          config.arrival_rate * cold_bound);
      const double shed_cold = cold_bound * split.cold;
      const double shed_hot = hot_bound * split.hot;
      to_backend -= shed_cold + shed_hot;
      uncovered_hot -= shed_hot;
      shed_fraction = shed_cold + shed_hot;
      result.max_shed_fraction = std::max(result.max_shed_fraction, shed_fraction);
    }

    // --- Latency mixture (all affected traffic) and the hot-only mixture.
    std::vector<std::pair<double, double>> mixture;
    std::vector<std::pair<double, double>> hot_mixture;
    if (to_repl > 0.0) {
      const NodeLatency nl =
          model.HitLatency(config.arrival_rate * to_repl, repl->capacity);
      mixture.push_back({nl.mean.seconds(), to_repl * 0.95});
      mixture.push_back({nl.p95.seconds(), to_repl * 0.05});
      const double hot_part = config.separation_mode ? hot_traffic : hot_covered;
      if (hot_part > 0.0) {
        hot_mixture.push_back({nl.mean.seconds(), hot_part * 0.95});
        hot_mixture.push_back({nl.p95.seconds(), hot_part * 0.05});
      }
    }
    if (to_backup > 0.0) {
      // Nearly every request to a not-yet-copied hot item is the first touch
      // of that item (items vastly outnumber per-epoch requests), so the
      // whole uncovered-hot stream lands on the backup. The backup serves up
      // to 90% of its *effective* CPU (token-governed for burstables); the
      // excess spills to the back-end - this is where an underpowered
      // m3.medium backup falls apart while a bursting t2.medium keeps up.
      const double load = config.arrival_rate * to_backup;
      ResourceVector backup_cap = config.backup_type->capacity;
      double net_rate_cap = std::max(load, 1.0);  // ops/s the NIC can carry
      if (backup_state) {
        const double demand_vcpus =
            load / config.latency.service_rate_per_vcpu * 1.25;
        backup_cap.vcpus =
            std::max(0.05, backup_state->RunCpu(t, t_end, demand_vcpus));
        // Serving responses drains the same network tokens the copy stream
        // uses; a long interim on a small burstable runs the bucket dry and
        // throttles serving toward the baseline (the scenario-B caveat).
        // Effective per-response wire cost, consistent with the phi model
        // (pipelined/batched responses, not the raw stored item size).
        const double wire_bytes = config.latency.item_size_bytes;
        const double serve_mbps = load * wire_bytes * 8.0 / 1e6;
        const double delivered_mbps =
            backup_state->RunNetwork(t, t_end, serve_mbps);
        if (delivered_mbps < serve_mbps * 0.999) {
          result.backup_tokens_exhausted = true;
          net_rate_cap = delivered_mbps * 1e6 / (wire_bytes * 8.0);
        }
      }
      const double capacity_rate = std::min(
          0.9 * backup_cap.vcpus * config.latency.service_rate_per_vcpu,
          net_rate_cap);
      const double served_fraction =
          load > capacity_rate ? capacity_rate / load : 1.0;
      const double served_w = to_backup * served_fraction;
      const double spill_w = to_backup - served_w;
      const NodeLatency nl =
          model.HitLatency(load * served_fraction, backup_cap);
      const double hop = config.backup_hop.seconds();
      if (served_w > 0.0) {
        mixture.push_back({nl.mean.seconds() + hop, served_w * 0.95});
        mixture.push_back({nl.p95.seconds() + hop, served_w * 0.05});
        hot_mixture.push_back({nl.mean.seconds() + hop, served_w * 0.95});
        hot_mixture.push_back({nl.p95.seconds() + hop, served_w * 0.05});
      }
      if (spill_w > 0.0) {
        mixture.push_back({miss_latency.seconds(), spill_w});
        hot_mixture.push_back({miss_latency.seconds(), spill_w});
      }
    }
    if (to_backend > 0.0) {
      mixture.push_back({miss_latency.seconds(), to_backend});
      if (!backup_ok && !config.separation_mode && uncovered_hot > 0.0) {
        hot_mixture.push_back({miss_latency.seconds(), uncovered_hot});
      }
    }

    double total_w = 0.0;
    double mean = 0.0;
    for (const auto& [lat, w] : mixture) {
      total_w += w;
      mean += lat * w;
    }
    if (total_w <= 0.0) {
      continue;
    }
    mean /= total_w;
    std::sort(mixture.begin(), mixture.end());
    double acc = 0.0;
    double p95 = mixture.back().first;
    for (const auto& [lat, w] : mixture) {
      acc += w;
      if (acc > 0.95 * total_w * (1.0 + 1e-12)) {
        p95 = lat;
        break;
      }
    }

    RecoveryPoint point;
    point.t_seconds = t.seconds();
    point.mean = Duration::FromSecondsF(mean);
    point.p95 = Duration::FromSecondsF(p95);
    point.warm_traffic_fraction = covered;
    point.shed_fraction = shed_fraction;
    result.series.push_back(point);
    result.max_mean_latency = std::max(result.max_mean_latency, point.mean);

    if (!settled) {
      for (const auto& sample : hot_mixture) {
        recovery_mixture.push_back(sample);
      }
      if (point.mean.seconds() <= 1.05 * config.target_mean.seconds()) {
        settled = true;
        result.warmup_time = (t + config.epoch) - SimTime();
        if (obs != nullptr) {
          obs->tracer.Custom(
              t + config.epoch, "recovery_settled",
              {{"warmup_s",
                EventTracer::JsonNumber(result.warmup_time.seconds())}});
        }
      }
    }
    if (obs != nullptr && result.backup_tokens_exhausted && !exhaustion_traced) {
      exhaustion_traced = true;
      obs->registry.GetCounter("recovery/token_exhaustions")->Increment();
      obs->tracer.TokenExhaustion(t, 0, "recovery");
    }
  }
  if (obs != nullptr) {
    obs->registry.GetHistogram("recovery/warmup_s")
        ->Record(result.warmup_time.seconds());
  }

  if (!recovery_mixture.empty()) {
    std::sort(recovery_mixture.begin(), recovery_mixture.end());
    double total_w = 0.0;
    for (const auto& [lat, w] : recovery_mixture) {
      total_w += w;
    }
    double acc = 0.0;
    for (const auto& [lat, w] : recovery_mixture) {
      acc += w;
      if (acc > 0.95 * total_w * (1.0 + 1e-12)) {
        result.p95_during_recovery = Duration::FromSecondsF(lat);
        break;
      }
    }
  }
  return result;
}

Duration NetworkCreditEarnTime(const InstanceTypeSpec& burstable, double data_gb) {
  // Tokens needed to push `data_gb` at peak: the megabits transferred above
  // what the baseline contributes during the burst.
  const double peak = burstable.capacity.net_mbps;
  const double base = burstable.baseline_net_mbps;
  if (peak <= base) {
    return Duration::Seconds(0);
  }
  const double burst_seconds = GbToMegabits(data_gb) / peak;
  const double tokens_needed = (peak - base) * burst_seconds;  // megabits
  // Accrual rate: baseline Mbps -> megabits per second.
  return Duration::FromSecondsF(tokens_needed / base);
}

}  // namespace spotcache
