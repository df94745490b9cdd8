#include "src/core/experiment.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/cloud/spot_price_model.h"
#include "src/util/logging.h"
#include "src/workload/trace.h"

namespace spotcache {

std::string_view ToString(Approach a) {
  switch (a) {
    case Approach::kOdPeak:
      return "ODPeak";
    case Approach::kOdOnly:
      return "ODOnly";
    case Approach::kOdSpotSep:
      return "OD+Spot_Sep";
    case Approach::kOdSpotCdf:
      return "OD+Spot_CDF";
    case Approach::kPropNoBackup:
      return "Prop_NoBackup";
    case Approach::kProp:
      return "Prop";
  }
  return "?";
}

std::vector<Approach> AllApproaches() {
  return {Approach::kOdPeak,     Approach::kOdOnly,       Approach::kOdSpotSep,
          Approach::kOdSpotCdf,  Approach::kPropNoBackup, Approach::kProp};
}

ApproachTraits TraitsOf(Approach a) {
  ApproachTraits t;
  switch (a) {
    case Approach::kOdPeak:
      t.static_peak = true;
      break;
    case Approach::kOdOnly:
      break;
    case Approach::kOdSpotSep:
      t.uses_spot = true;
      t.our_spot_model = true;
      break;
    case Approach::kOdSpotCdf:
      t.uses_spot = true;
      t.hot_cold_mixing = true;
      break;
    case Approach::kPropNoBackup:
      t.uses_spot = true;
      t.our_spot_model = true;
      t.hot_cold_mixing = true;
      break;
    case Approach::kProp:
      t.uses_spot = true;
      t.our_spot_model = true;
      t.hot_cold_mixing = true;
      t.passive_backup = true;
      break;
  }
  return t;
}

std::unique_ptr<SpotFeaturePredictor> MakePredictor(Approach a) {
  const ApproachTraits traits = TraitsOf(a);
  if (!traits.uses_spot) {
    return nullptr;
  }
  if (traits.our_spot_model) {
    return std::make_unique<LifetimePredictor>();
  }
  return std::make_unique<CdfPredictor>();
}

std::string ValidateExperimentConfig(const ExperimentConfig& config) {
  if (std::string err = config.workload.Validate(); !err.empty()) {
    return err;
  }
  for (const double m : config.bid_multipliers) {
    if (!std::isfinite(m) || m <= 0.0) {
      return "bid_multipliers must all be positive and finite";
    }
  }
  if (config.substep <= Duration::Micros(0)) {
    return "substep must be positive";
  }
  if (!std::isfinite(config.reactive_threshold) ||
      config.reactive_threshold < 1.0) {
    return "reactive_threshold must be finite and >= 1 (it is a ratio of "
           "actual to predicted demand)";
  }
  if (config.revocation_cooldown < Duration::Micros(0)) {
    return "revocation_cooldown must be non-negative";
  }
  if (config.cluster.backup_type != nullptr) {
    if (std::string err = Validate(*config.cluster.backup_type); !err.empty()) {
      return err;
    }
  }
  if (std::string err = Validate(config.cluster.replacement_retry);
      !err.empty()) {
    return "cluster.replacement_retry: " + err;
  }
  if (config.resilience.enabled) {
    if (std::string err = ValidateResilienceConfig(config.resilience);
        !err.empty()) {
      return "resilience: " + err;
    }
  }
  return "";
}

size_t ExperimentResult::OptionIndex(std::string_view label) const {
  for (size_t i = 0; i < option_labels.size(); ++i) {
    if (option_labels[i] == label) {
      return i;
    }
  }
  return static_cast<size_t>(-1);
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  if (std::string err = ValidateExperimentConfig(config); !err.empty()) {
    throw std::invalid_argument("invalid experiment config: " + err);
  }
  const ApproachTraits traits = TraitsOf(config.approach);

  // --- Substrate: catalog, markets (traces sized to the run), provider.
  static const InstanceCatalog catalog = InstanceCatalog::Default();
  std::vector<SpotMarket> markets;
  if (traits.uses_spot) {
    // Traces start 7 days before the experiment so predictors have history
    // from slot 0, exactly like the paper's 7-day training prefix.
    markets = MakeEvaluationMarkets(
        catalog, Duration::Days(config.workload.days + 9), config.market_seed);
    if (!config.market_filter.empty()) {
      std::vector<SpotMarket> kept;
      for (auto& m : markets) {
        if (std::find(config.market_filter.begin(), config.market_filter.end(),
                      m.name) != config.market_filter.end()) {
          kept.push_back(std::move(m));
        }
      }
      markets = std::move(kept);
    }
  }
  CloudProvider provider(&catalog, std::move(markets), config.market_seed ^ 0x9e37);

  // --- Observability: one bundle per run, threaded through every component.
  std::unique_ptr<Obs> obs;
  if (config.obs.enabled) {
    obs = std::make_unique<Obs>();
    obs->tracer.set_enabled(config.obs.trace);
    provider.AttachObs(obs.get());
  }

  // --- Fault layer: schedule is a pure function of (seed, scenario).
  FaultInjector injector(FaultPlan::Build(config.fault_seed, config.fault));
  if (!injector.plan().empty()) {
    provider.AttachFaultInjector(&injector);
  }

  // --- Controller: options reference the provider-owned markets.
  std::vector<ProcurementOption> options =
      BuildOptions(catalog, provider.markets(), config.bid_multipliers);
  OptimizerConfig opt_config = config.optimizer;
  opt_config.mixing = (traits.hot_cold_mixing || !traits.uses_spot)
                          ? MixingPolicy::kMix
                          : MixingPolicy::kSeparate;
  GlobalController controller(
      ProcurementOptimizer(options, config.cluster.latency_model, opt_config),
      MakePredictor(config.approach));
  controller.SetRevocationCooldown(config.revocation_cooldown);
  controller.AttachObs(obs.get());

  ClusterConfig cluster_config = config.cluster;
  cluster_config.use_backup = traits.passive_backup;
  Cluster cluster(&provider, &controller.options(), cluster_config);
  cluster.AttachObs(obs.get());

  // --- Resilience (off by default; every consumer keeps its legacy behavior
  // bit-for-bit when it is disabled).
  cluster.AttachResilience(config.resilience);
  if (config.resilience.enabled &&
      config.revocation_cooldown > Duration::Micros(0)) {
    // Escalating market cooldowns: the base cooldown is the policy's initial
    // delay, repeated storms on one option back off from there.
    RetryPolicyConfig cooldown = config.cluster.replacement_retry;
    cooldown.initial_delay = config.revocation_cooldown;
    cooldown.max_delay = std::max(cooldown.max_delay, cooldown.initial_delay);
    controller.EnableCooldownBackoff(cooldown, config.resilience.seed);
  }

  // --- Workload.
  const WorkloadTrace trace = WorkloadTrace::GenerateDiurnal(
      config.workload.TraceConfig());
  const ZipfPopularity popularity(config.workload.NumKeys(),
                                  config.workload.zipf_theta);

  // The experiment clock starts 7 days into the market traces.
  const Duration warmup_offset = Duration::Days(7);
  provider.AdvanceTo(SimTime() + warmup_offset);

  ExperimentResult result;
  result.approach_name = std::string(ToString(config.approach));
  for (const auto& opt : controller.options()) {
    result.option_labels.push_back(opt.label);
  }

  // ODPeak's one-time plan, computed from the workload's true peaks.
  AllocationPlan static_plan;
  SlotContext static_context;
  if (traits.static_peak) {
    const double peak_rate = trace.PeakRate();
    const double peak_ws = trace.PeakWorkingSetGb();
    static_plan = controller.Plan(provider.now(), peak_rate, peak_ws, popularity,
                                  std::vector<int>(options.size(), 0));
    static_context = {peak_rate,
                      peak_ws,
                      std::min(popularity.KeyFractionForCoverage(
                                   opt_config.hot_coverage),
                               opt_config.alpha),
                      0.0,
                      popularity.AccessFraction(opt_config.alpha),
                      opt_config.alpha,
                      config.workload.read_fraction};
    static_context.hot_access_fraction =
        popularity.AccessFraction(static_context.hot_ws_fraction);
  }

  const Duration slot = config.optimizer.slot;
  const size_t substeps = std::max<int64_t>(1, slot / config.substep);
  double billed_so_far = 0.0;

  for (size_t s = 0; s < trace.slots(); ++s) {
    const SimTime slot_start = SimTime() + warmup_offset + slot * static_cast<int64_t>(s);
    const double lambda_act = trace.RateAt(s);
    const double ws_act = trace.WorkingSetGbAt(s);

    // Predict (cold start: persistence on the first slot).
    double lambda_hat = controller.PredictLambda();
    double ws_hat = controller.PredictWorkingSetGb();
    if (s == 0 || lambda_hat <= 0.0) {
      lambda_hat = lambda_act;
    }
    if (s == 0 || ws_hat <= 0.0) {
      ws_hat = ws_act;
    }

    AllocationPlan plan;
    SlotContext context;
    bool fallback = false;
    if (traits.static_peak) {
      plan = static_plan;
      context = static_context;
      context.lambda = lambda_act;
    } else {
      // Reactive element: if observation at slot start already exceeds the
      // prediction materially, re-plan with actuals (flash-crowd handling).
      if (lambda_act > lambda_hat * config.reactive_threshold) {
        lambda_hat = lambda_act;
      }
      if (ws_act > ws_hat * config.reactive_threshold) {
        ws_hat = ws_act;
      }
      plan = controller.Plan(slot_start, lambda_hat, ws_hat, popularity,
                             cluster.ExistingCounts());
      if (!plan.feasible) {
        // Availability fallback: the on-demand-only problem is always
        // feasible; never leave the tenant unprovisioned.
        SlotInputs inputs = controller.BuildInputs(slot_start, lambda_hat, ws_hat,
                                                   popularity,
                                                   cluster.ExistingCounts());
        for (size_t o = 0; o < options.size(); ++o) {
          if (!options[o].is_on_demand()) {
            inputs.available[o] = false;
          }
        }
        plan = controller.optimizer().Solve(inputs);
        fallback = true;
      }
      const SlotInputs ctx_inputs = controller.BuildInputs(
          slot_start, lambda_hat, ws_hat, popularity, cluster.ExistingCounts());
      context = {lambda_hat,
                 ws_hat,
                 ctx_inputs.hot_ws_fraction,
                 ctx_inputs.hot_access_fraction,
                 ctx_inputs.alpha_access_fraction,
                 opt_config.alpha,
                 config.workload.read_fraction};
    }

    if (obs != nullptr) {
      // The decision record: what the controller chose for this slot (after
      // any on-demand-only fallback), with the LP objective and the chosen
      // per-option placement fractions.
      int planned_instances = 0;
      for (const auto& item : plan.items) {
        planned_instances += item.count;
      }
      obs->tracer.Replan(slot_start, context.lambda, context.working_set_gb,
                         plan.feasible, plan.lp_objective, planned_instances,
                         fallback);
      for (const auto& item : plan.items) {
        obs->tracer.ReplanItem(slot_start, options[item.option].label,
                               item.count, item.x, item.y);
      }
    }

    const Cluster::ApplyResult applied = cluster.Apply(plan, context);
    result.bid_rejections += applied.bid_rejected;

    // Advance through the slot in sub-steps, aggregating performance.
    double affected = 0.0;
    double shed = 0.0;
    double mean_s = 0.0;
    double p95_max = 0.0;
    int revocations = 0;
    for (size_t sub = 1; sub <= substeps; ++sub) {
      const SimTime sub_end =
          slot_start + config.substep * static_cast<int64_t>(sub);
      const Cluster::StepPerf perf = cluster.Step(sub_end, lambda_act);
      affected += perf.affected_fraction;
      shed += perf.shed_fraction;
      mean_s += perf.mean_latency.seconds();
      p95_max = std::max(p95_max, perf.p95_latency.seconds());
      revocations += perf.revocations;
      // Feed observed revocations back so the controller can cool down the
      // affected markets (matters under correlated revocation storms).
      for (const size_t o : perf.revoked_options) {
        controller.NoteRevocation(o, sub_end);
      }
    }
    affected /= static_cast<double>(substeps);
    shed /= static_cast<double>(substeps);
    mean_s /= static_cast<double>(substeps);
    result.revocations += revocations;

    SlotRecord rec;
    rec.start = slot_start;
    rec.lambda = lambda_act;
    rec.lambda_hat = lambda_hat;
    rec.working_set_gb = ws_act;
    rec.counts = cluster.ExistingCounts();
    rec.backups = cluster.backup_count();
    rec.affected_fraction = affected;
    rec.shed_fraction = shed;
    rec.mean_latency = Duration::FromSecondsF(mean_s);
    rec.p95_latency = Duration::FromSecondsF(p95_max);
    rec.revocations = revocations;
    rec.cost = provider.ledger().Total() - billed_so_far;
    billed_so_far = provider.ledger().Total();
    result.slots.push_back(rec);

    SlotPerf slot_perf;
    slot_perf.slot_start = slot_start;
    slot_perf.arrival_rate = lambda_act;
    slot_perf.affected_fraction = affected;
    slot_perf.shed_fraction = shed;
    slot_perf.mean_latency = rec.mean_latency;
    slot_perf.p95_latency = rec.p95_latency;
    slot_perf.cost_dollars = rec.cost;
    result.tracker.Record(slot_perf);

    if (obs != nullptr) {
      MetricsRegistry& reg = obs->registry;
      reg.AddSample("slot/cost", slot_start, rec.cost);
      reg.AddSample("slot/lambda", slot_start, lambda_act);
      reg.AddSample("slot/affected_fraction", slot_start, affected);
      if (config.resilience.enabled) {
        // Only sampled with resilience on, so legacy CSV exports stay
        // byte-identical when it is disabled.
        reg.AddSample("slot/shed_fraction", slot_start, shed);
      }
      reg.AddSample("slot/mean_latency_us", slot_start,
                    rec.mean_latency.seconds() * 1e6);
      reg.AddSample("slot/p95_latency_us", slot_start,
                    rec.p95_latency.seconds() * 1e6);
      int total_instances = 0;
      for (const int c : rec.counts) {
        total_instances += c;
      }
      reg.AddSample("slot/instances", slot_start,
                    static_cast<double>(total_instances));
      reg.AddSample("slot/backups", slot_start,
                    static_cast<double>(rec.backups));
      for (const auto& m : provider.markets()) {
        reg.AddSample("spot/price", slot_start, m.trace.PriceAt(slot_start),
                      {{"market", m.name}});
      }
    }

    controller.ObserveSlot(lambda_act, ws_act);
  }

  cluster.Shutdown();
  provider.FinalizeBilling();
  // Attribute the final terminations' charges to the last slot.
  if (!result.slots.empty()) {
    result.slots.back().cost += provider.ledger().Total() - billed_so_far;
  }

  result.total_cost = provider.ledger().Total();
  result.od_cost = provider.ledger().TotalFor(CostCategory::kOnDemand);
  result.spot_cost = provider.ledger().TotalFor(CostCategory::kSpot);
  result.backup_cost = provider.ledger().TotalFor(CostCategory::kBurstableBackup);
  result.faults = injector.counters();
  result.tracker.RecordFaults(result.faults);
  result.launch_failures = cluster.total_launch_failures();
  result.failed_replacements = cluster.failed_replacements();

  if (obs != nullptr) {
    // Publish the run summary (slo/* gauges + fault/* counters), then export.
    result.tracker.PublishTo(&obs->registry);
    result.trace_jsonl = ToJsonl(obs->tracer);
    result.metrics_csv = ToCsvTimeSeries(obs->registry);
    result.metrics_prometheus = ToPrometheusText(obs->registry);
    if (!config.obs.jsonl_path.empty()) {
      WriteStringToFile(config.obs.jsonl_path, result.trace_jsonl);
    }
    if (!config.obs.csv_path.empty()) {
      WriteStringToFile(config.obs.csv_path, result.metrics_csv);
    }
    if (!config.obs.prometheus_path.empty()) {
      WriteStringToFile(config.obs.prometheus_path, result.metrics_prometheus);
    }
  }
  return result;
}

}  // namespace spotcache
