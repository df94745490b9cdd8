#include "src/core/cluster.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace spotcache {

namespace {
constexpr double kBytesPerGb = 1024.0 * 1024.0 * 1024.0;

// A warm-up window's average affected traffic: coverage of the replacement
// grows during the window, so on average roughly half the affected traffic is
// still being served by the fallback path at any instant.
constexpr double kWarmupAverageFactor = 0.5;

double CopySecondsFor(double gigabytes, double mbps) {
  if (gigabytes <= 0.0) {
    return 0.0;
  }
  if (mbps <= 0.0) {
    return 3600.0;  // no path: cap at an hour of degradation
  }
  return gigabytes * kBytesPerGb * 8.0 / (mbps * 1e6);
}

// Breaker ids for market options live in a reserved range so they never
// collide with instance ids. The id seeds the breaker's probe jitter and is
// the "node" of its breaker_transition trace events.
constexpr uint64_t kOptionBreakerIdBase = 0xF000'0000'0000'0000ULL;
}  // namespace

Cluster::Cluster(CloudProvider* provider,
                 const std::vector<ProcurementOption>* options,
                 ClusterConfig config)
    : provider_(provider), options_(options), config_(std::move(config)) {
  holdings_.resize(options_->size());
}

void Cluster::AttachResilience(const ResilienceConfig& config) {
  resilience_.reset();
  option_breakers_.clear();
  if (config.enabled) {
    resilience_ = config;
    replacement_policy_ = RetryPolicy(config_.replacement_retry, config.seed);
  }
  AttachObs(obs_);  // (un)resolve the resilience counters
}

void Cluster::AttachObs(Obs* obs) {
  obs_ = obs;
  launched_ = terminated_ = bid_rejected_ = launch_failed_ = nullptr;
  backups_gauge_ = nullptr;
  breaker_trips_ = breaker_closes_ = retries_ = sheds_ = nullptr;
  if (obs == nullptr) {
    return;
  }
  MetricsRegistry& reg = obs->registry;
  launched_ = reg.GetCounter("cluster/launched");
  terminated_ = reg.GetCounter("cluster/terminated");
  bid_rejected_ = reg.GetCounter("cluster/bid_rejections");
  launch_failed_ = reg.GetCounter("cluster/launch_failures");
  backups_gauge_ = reg.GetGauge("cluster/backups");
  if (resilience_.has_value()) {
    breaker_trips_ = reg.GetCounter("resilience/breaker_trips");
    breaker_closes_ = reg.GetCounter("resilience/breaker_closes");
    retries_ = reg.GetCounter("resilience/retries");
    sheds_ = reg.GetCounter("resilience/sheds");
  }
}

CircuitBreaker& Cluster::OptionBreaker(size_t option) {
  auto it = option_breakers_.find(option);
  if (it == option_breakers_.end()) {
    it = option_breakers_
             .emplace(option, CircuitBreaker(resilience_->breaker,
                                             resilience_->seed,
                                             kOptionBreakerIdBase | option))
             .first;
  }
  return it->second;
}

void Cluster::RecordLaunchOutcome(size_t option, SimTime now, bool ok) {
  CircuitBreaker& breaker = OptionBreaker(option);
  const BreakerState before = breaker.state(now);
  if (ok) {
    breaker.RecordSuccess(now);
  } else {
    breaker.RecordFailure(now);
  }
  const BreakerState after = breaker.state(now);
  if (after == before || obs_ == nullptr) {
    return;
  }
  if (after == BreakerState::kOpen) {
    breaker_trips_->Increment();
  } else if (after == BreakerState::kClosed) {
    breaker_closes_->Increment();
  }
  obs_->tracer.BreakerTransition(now, kOptionBreakerIdBase | option,
                                 ToString(before), ToString(after));
}

void Cluster::CountRetry(SimTime now, uint64_t op_id, int attempt,
                         Duration delay) {
  if (obs_ != nullptr) {
    retries_->Increment();
    obs_->tracer.RetryAttempt(now, op_id, attempt, delay);
  }
}

const InstanceTypeSpec& Cluster::BackupType() const {
  if (config_.backup_type != nullptr) {
    return *config_.backup_type;
  }
  return *provider_->catalog().Find("t2.medium");
}

double Cluster::TrafficWeight(const AllocationItem& item) const {
  const SlotContext& c = context_;
  double w = 0.0;
  if (c.hot_ws_fraction > 0.0) {
    w += item.x / c.hot_ws_fraction * c.hot_access_fraction;
  }
  const double cold_ws = c.alpha - c.hot_ws_fraction;
  if (cold_ws > 0.0) {
    w += item.y / cold_ws *
         std::max(0.0, c.alpha_access_fraction - c.hot_access_fraction);
  }
  return w;
}

Cluster::ApplyResult Cluster::Apply(const AllocationPlan& plan,
                                    const SlotContext& context) {
  ApplyResult result;
  plan_ = plan;
  context_ = context;

  // Replacements from the previous slot are superseded by the new plan.
  for (InstanceId id : replacements_) {
    provider_->Terminate(id);
  }
  replacements_.clear();
  replacement_for_.clear();
  pending_.clear();  // reconciliation re-provisions any remaining shortfall

  // Reconcile each option's holdings with its target count.
  for (size_t o = 0; o < options_->size(); ++o) {
    auto& held = holdings_[o];
    held.erase(std::remove_if(held.begin(), held.end(),
                              [this](InstanceId id) {
                                const Instance* inst = provider_->Get(id);
                                return inst == nullptr || !inst->alive();
                              }),
               held.end());
    const int target = plan.CountFor(o);
    while (static_cast<int>(held.size()) > target) {
      provider_->Terminate(held.back());
      held.pop_back();
      ++result.terminated;
    }
    const ProcurementOption& opt = (*options_)[o];
    while (static_cast<int>(held.size()) < target) {
      InstanceId id;
      if (opt.is_on_demand()) {
        id = provider_->LaunchOnDemand(*opt.type, "primary:" + opt.label);
      } else {
        id = provider_->RequestSpot(*opt.market, opt.bid, "primary:" + opt.label);
      }
      if (id == kInvalidInstanceId) {
        // Distinguish a market move (bid rejection) from an injected launch
        // outage: on-demand never bid-fails, and a spot request whose bid
        // still clears the price can only have hit the outage.
        if (opt.is_on_demand() || provider_->SpotPrice(*opt.market) <= opt.bid) {
          ++result.launch_failed;
          ++total_launch_failures_;
        } else {
          ++result.bid_rejected;
          ++total_bid_rejections_;
        }
        break;  // shortfall stands this slot; next reconciliation retries
      }
      held.push_back(id);
      ++result.launched;
    }
  }

  // Size the backup fleet to the hot data sitting on spot instances.
  int backup_target = 0;
  if (config_.use_backup) {
    double hot_on_spot_gb = 0.0;
    for (const auto& item : plan.items) {
      if (!(*options_)[item.option].is_on_demand()) {
        hot_on_spot_gb += item.x * context.working_set_gb;
      }
    }
    const double per_backup =
        BackupType().capacity.ram_gb * kRamUsableFraction;
    if (hot_on_spot_gb > 1e-9) {
      backup_target =
          static_cast<int>(std::ceil(hot_on_spot_gb / per_backup - 1e-9));
    }
  }
  backups_.erase(std::remove_if(backups_.begin(), backups_.end(),
                                [this](InstanceId id) {
                                  const Instance* inst = provider_->Get(id);
                                  return inst == nullptr || !inst->alive();
                                }),
                 backups_.end());
  while (static_cast<int>(backups_.size()) > backup_target) {
    provider_->Terminate(backups_.back());
    backups_.pop_back();
  }
  while (static_cast<int>(backups_.size()) < backup_target) {
    const InstanceId id = provider_->LaunchBurstable(BackupType(), "backup");
    if (id == kInvalidInstanceId) {
      ++result.launch_failed;
      ++total_launch_failures_;
      break;  // launch outage: the next reconciliation retries
    }
    backups_.push_back(id);
  }
  result.backup_count = static_cast<int>(backups_.size());
  if (obs_ != nullptr) {
    launched_->Increment(result.launched);
    terminated_->Increment(result.terminated);
    bid_rejected_->Increment(result.bid_rejected);
    launch_failed_->Increment(result.launch_failed);
    backups_gauge_->Set(static_cast<double>(result.backup_count));
  }
  return result;
}

void Cluster::HandleWarning(const Instance& inst) {
  if (replacement_for_.count(inst.id) > 0) {
    return;
  }
  // Only react for instances we actually hold.
  bool ours = false;
  for (const auto& held : holdings_) {
    if (std::find(held.begin(), held.end(), inst.id) != held.end()) {
      ours = true;
      break;
    }
  }
  if (!ours) {
    return;
  }
  // Launch the on-demand replacement immediately (paper: upon receiving the
  // two-minute warning). Same hardware type, on-demand billing.
  const InstanceId repl =
      provider_->LaunchOnDemand(*inst.type, "replacement:" + inst.tag);
  if (repl == kInvalidInstanceId) {
    // Injected launch outage; the revocation handler retries at revocation
    // time, and failing that the next reconciliation re-provisions.
    ++total_launch_failures_;
    return;
  }
  replacement_for_[inst.id] = repl;
  replacements_.push_back(repl);
}

double Cluster::BackupCopyMbps(SimTime from, Duration window, double demand_mbps) {
  if (backups_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  const double per_backup = demand_mbps / static_cast<double>(backups_.size());
  for (InstanceId id : backups_) {
    Instance* b = provider_->GetMutable(id);
    if (b == nullptr || !b->alive() || b->burst == std::nullopt) {
      continue;
    }
    const double got = b->burst->RunNetwork(from, from + window, per_backup);
    if (obs_ != nullptr && got + 1e-9 < per_backup) {
      // The backup's token bucket ran dry mid-copy: it delivered less than
      // the warm-up stream demanded.
      obs_->registry.GetCounter("cluster/token_exhaustions")->Increment();
      obs_->tracer.TokenExhaustion(from, id, "warmup_copy");
    }
    total += got;
  }
  return total;
}

void Cluster::HandleRevocation(const Instance& inst) {
  // A burstable backup killed by fault injection: repair the fleet in place.
  // Primary traffic is unaffected, but hot shards lose their warm-up source
  // until the replacement backup boots.
  const auto bit = std::find(backups_.begin(), backups_.end(), inst.id);
  if (bit != backups_.end()) {
    backups_.erase(bit);
    ++backup_losses_;
    const InstanceId repl = provider_->LaunchBurstable(BackupType(), "backup");
    if (repl == kInvalidInstanceId) {
      ++total_launch_failures_;  // outage: next reconciliation re-provisions
    } else {
      backups_.push_back(repl);
    }
    return;
  }

  ++total_revocations_;
  ++step_revocations_;

  // Locate the option the instance belonged to.
  size_t option = options_->size();
  for (size_t o = 0; o < holdings_.size(); ++o) {
    auto it = std::find(holdings_[o].begin(), holdings_[o].end(), inst.id);
    if (it != holdings_[o].end()) {
      holdings_[o].erase(it);
      option = o;
      break;
    }
  }
  if (option == options_->size()) {
    return;  // not one of ours (already superseded)
  }
  step_revoked_options_.push_back(option);
  const AllocationItem* item = plan_.ItemFor(option);
  if (item == nullptr || item->count <= 0) {
    return;
  }
  const double n = static_cast<double>(item->count);
  const SlotContext& c = context_;

  // Per-instance shares of data and traffic.
  const double hot_gb = item->x * c.working_set_gb / n;
  const double cold_gb = item->y * c.working_set_gb / n;
  double hot_traffic = 0.0;
  if (c.hot_ws_fraction > 0.0) {
    hot_traffic = item->x / c.hot_ws_fraction * c.hot_access_fraction / n;
  }
  double cold_traffic = 0.0;
  const double cold_ws = c.alpha - c.hot_ws_fraction;
  if (cold_ws > 0.0) {
    cold_traffic = item->y / cold_ws *
                   std::max(0.0, c.alpha_access_fraction - c.hot_access_fraction) /
                   n;
  }

  const SimTime now = provider_->now();

  // Replacement readiness (scenario A: ready before revocation; B: after).
  // The paper's Fig 4 breakdown: "1a" = warned and the replacement is ready
  // at revocation; "1b" = warned but the replacement is still booting;
  // "2" = the revocation arrived with no (usable) warning.
  SimTime ready = now;
  const char* warmup_case = "2";
  auto rit = replacement_for_.find(inst.id);
  if (rit != replacement_for_.end()) {
    const Instance* repl = provider_->Get(rit->second);
    if (repl != nullptr) {
      ready = std::max(now, repl->ready_time);
      holdings_[option].push_back(rit->second);  // joins the pool post-warm-up
    }
    warmup_case = ready > now ? "1b" : "1a";
  } else {
    // No warning was processed (missed warning, revocation at boot, or the
    // warning-time launch fell into an outage); launch now.
    const InstanceId repl =
        provider_->LaunchOnDemand(*inst.type, "replacement:" + inst.tag);
    if (repl == kInvalidInstanceId) {
      // Still inside a launch outage: the shard stays degraded (bounded by
      // the retry horizon). Legacy behavior waits for the next slot-boundary
      // reconciliation; with resilience attached the launch is retried
      // in-step under the replacement_retry policy.
      ++total_launch_failures_;
      ++failed_replacements_;
      if (obs_ != nullptr) {
        obs_->registry.GetCounter("cluster/replacement_failures")->Increment();
        obs_->tracer.ReplacementFailed(now, inst.id);
      }
      SimTime until = now + config_.replacement_retry.initial_delay;
      if (resilience_.has_value()) {
        const Duration delay = replacement_policy_.Delay(inst.id, 1);
        until = now + delay;  // == initial_delay: attempt 1 is un-jittered
        pending_.push_back({option, inst.type, inst.tag, inst.id, 1, until,
                            hot_gb, cold_gb, hot_traffic, cold_traffic});
        RecordLaunchOutcome(option, now, /*ok=*/false);
        CountRetry(now, inst.id, 1, delay);
      }
      PushFailureDegradations(until, hot_traffic, cold_traffic);
      return;
    }
    replacements_.push_back(repl);
    replacement_for_[inst.id] = repl;
    const Instance* r = provider_->Get(repl);
    ready = r->ready_time;
    holdings_[option].push_back(repl);
    if (resilience_.has_value()) {
      RecordLaunchOutcome(option, now, /*ok=*/true);
    }
  }

  ScheduleWarmup(*inst.type, inst.id, warmup_case, hot_gb, cold_gb,
                 hot_traffic, cold_traffic, now, ready);
}

void Cluster::PushFailureDegradations(SimTime until, double hot_traffic,
                                      double cold_traffic) {
  const Duration miss_latency = config_.latency_model.params().base_latency +
                                config_.latency_model.params().miss_penalty;
  const Duration backup_latency =
      config_.latency_model.params().base_latency + config_.backup_hop_latency;
  const bool backup_av = config_.use_backup && !backups_.empty();
  if (hot_traffic > 0.0) {
    degradations_.push_back({until, hot_traffic,
                             backup_av ? backup_latency : miss_latency,
                             /*backend=*/!backup_av, /*cold=*/false});
  }
  if (cold_traffic > 0.0) {
    degradations_.push_back(
        {until, cold_traffic, miss_latency, /*backend=*/true, /*cold=*/true});
  }
}

void Cluster::ScheduleWarmup(const InstanceTypeSpec& type, uint64_t inst_id,
                             const char* warmup_case, double hot_gb,
                             double cold_gb, double hot_traffic,
                             double cold_traffic, SimTime now, SimTime ready) {
  const Duration miss_latency = config_.latency_model.params().base_latency +
                                config_.latency_model.params().miss_penalty;
  const Duration backup_latency =
      config_.latency_model.params().base_latency + config_.backup_hop_latency;

  // Interim gap (case 2 / 1(b)): revoked but replacement not yet ready.
  const bool backup_available = config_.use_backup && !backups_.empty();
  if (ready > now) {
    if (backup_available && hot_traffic > 0.0) {
      degradations_.push_back(
          {ready, hot_traffic, backup_latency, /*backend=*/false, /*cold=*/false});
    } else if (hot_traffic > 0.0) {
      degradations_.push_back(
          {ready, hot_traffic, miss_latency, /*backend=*/true, /*cold=*/false});
    }
    if (cold_traffic > 0.0) {
      degradations_.push_back(
          {ready, cold_traffic, miss_latency, /*backend=*/true, /*cold=*/true});
    }
  }

  // Warm-up windows from `ready`.
  const double repl_net = type.capacity.net_mbps * config_.copy_efficiency;
  Duration w_hot;
  Duration w_cold;
  if (backup_available && hot_gb > 0.0) {
    // Hot content warms from the backup at min(backup burst, replacement NIC).
    const Duration est_window =
        Duration::FromSecondsF(CopySecondsFor(hot_gb, repl_net));
    const double backup_mbps =
        BackupCopyMbps(ready, est_window, repl_net / config_.copy_efficiency) *
        config_.copy_efficiency;
    const double rate = std::min(repl_net, backup_mbps > 0.0 ? backup_mbps : repl_net);
    w_hot = Duration::FromSecondsF(CopySecondsFor(hot_gb, rate));
    if (hot_traffic > 0.0) {
      degradations_.push_back({ready + w_hot,
                               hot_traffic * kWarmupAverageFactor,
                               backup_latency, /*backend=*/false,
                               /*cold=*/false});
    }
  } else if (hot_gb > 0.0 && hot_traffic > 0.0) {
    w_hot = Duration::FromSecondsF(
        CopySecondsFor(hot_gb, config_.backend_copy_mbps));
    degradations_.push_back({ready + w_hot,
                             hot_traffic * kWarmupAverageFactor, miss_latency,
                             /*backend=*/true, /*cold=*/false});
  }
  if (cold_gb > 0.0 && cold_traffic > 0.0) {
    // Cold data is never backed up; it always refills from the back-end.
    w_cold = Duration::FromSecondsF(
        CopySecondsFor(cold_gb, config_.backend_copy_mbps));
    degradations_.push_back({ready + w_cold,
                             cold_traffic * kWarmupAverageFactor, miss_latency,
                             /*backend=*/true, /*cold=*/true});
  }
  if (obs_ != nullptr) {
    obs_->registry.GetCounter("cluster/warmups", {{"case", warmup_case}})
        ->Increment();
    obs_->tracer.WarmupStart(now, inst_id, warmup_case, hot_gb, cold_gb, ready);
    // Future-dated: the predicted end of the slower of the two copy streams.
    obs_->tracer.WarmupEnd(ready + std::max(w_hot, w_cold), inst_id,
                           warmup_case);
  }
}

void Cluster::RetryPendingReplacements(SimTime now) {
  if (!resilience_.has_value() || pending_.empty()) {
    return;
  }
  std::vector<PendingReplacement> still;
  still.reserve(pending_.size());
  for (PendingReplacement& p : pending_) {
    if (p.next_attempt > now) {
      still.push_back(std::move(p));
      continue;
    }
    const CircuitBreaker& breaker = OptionBreaker(p.option);
    if (!breaker.Allow(now)) {
      // The option's breaker is open (repeated launch failures): defer the
      // attempt to the breaker's deterministic probe time instead of burning
      // the retry budget into a known outage.
      p.next_attempt = breaker.probe_at();
      still.push_back(std::move(p));
      continue;
    }
    if (replacement_policy_.Exhausted(p.attempts)) {
      // Retry budget spent: leave the shortfall to slot-boundary
      // reconciliation (Apply), which re-provisions from the plan.
      continue;
    }
    ++p.attempts;
    const InstanceId repl =
        provider_->LaunchOnDemand(*p.type, "replacement:" + p.tag);
    if (repl == kInvalidInstanceId) {
      ++total_launch_failures_;
      ++failed_replacements_;
      RecordLaunchOutcome(p.option, now, /*ok=*/false);
      if (obs_ != nullptr) {
        obs_->registry.GetCounter("cluster/replacement_failures")->Increment();
        obs_->tracer.ReplacementFailed(now, p.op_id);
      }
      const Duration delay = replacement_policy_.Delay(p.op_id, p.attempts);
      p.next_attempt = now + delay;
      CountRetry(now, p.op_id, p.attempts, delay);
      PushFailureDegradations(p.next_attempt, p.hot_traffic, p.cold_traffic);
      still.push_back(std::move(p));
      continue;
    }
    RecordLaunchOutcome(p.option, now, /*ok=*/true);
    replacements_.push_back(repl);
    holdings_[p.option].push_back(repl);
    const Instance* r = provider_->Get(repl);
    const SimTime ready = std::max(now, r->ready_time);
    ScheduleWarmup(*p.type, p.op_id, "retry", p.hot_gb, p.cold_gb,
                   p.hot_traffic, p.cold_traffic, now, ready);
  }
  pending_ = std::move(still);
}

Cluster::StepPerf Cluster::Step(SimTime to, double lambda_actual) {
  const SimTime from = provider_->now();
  const Duration step_len = to - from;
  step_revocations_ = 0;
  step_revoked_options_.clear();

  for (const ProviderEvent& ev : provider_->AdvanceTo(to)) {
    const Instance* inst = provider_->Get(ev.instance_id);
    if (inst == nullptr) {
      continue;
    }
    switch (ev.kind) {
      case ProviderEventKind::kRevocationWarning:
        HandleWarning(*inst);
        break;
      case ProviderEventKind::kRevoked:
        HandleRevocation(*inst);
        break;
      case ProviderEventKind::kInstanceReady:
        break;
    }
  }

  RetryPendingReplacements(to);

  StepPerf perf;
  perf.revocations = step_revocations_;
  perf.revoked_options = step_revoked_options_;
  const SlotContext& c = context_;
  if (lambda_actual <= 0.0 || step_len <= Duration::Micros(0)) {
    perf.mean_latency = config_.latency_model.params().base_latency;
    perf.p95_latency = perf.mean_latency;
    return perf;
  }

  // A latency-mixture component. `backend` marks traffic that lands on the
  // back-end store (counts against its capacity); shed_class orders admission
  // shedding: 0 = never shed (cache-served, write-through), 1 = cold
  // backend-bound (shed first), 2 = hot backend-bound (shed last).
  struct MixEntry {
    double lat = 0.0;  // seconds
    double w = 0.0;    // fraction of arrivals
    bool backend = false;
    int shed_class = 0;
  };

  // Active degradation mass over this step (time-overlap weighted). Windows
  // are created at event times within the step; treat each as covering from
  // its creation to `until`, clipped to the step.
  double degraded = 0.0;
  std::vector<MixEntry> mixture;
  for (const auto& d : degradations_) {
    if (d.until <= from) {
      continue;
    }
    const double overlap =
        std::min(1.0, (std::min(d.until, to) - from) / step_len);
    const double w = d.traffic_fraction * overlap;
    if (w <= 0.0) {
      continue;
    }
    degraded += w;
    mixture.push_back({d.served_latency.seconds(), w, d.backend,
                       d.backend ? (d.cold ? 1 : 2) : 0});
  }
  degradations_.erase(
      std::remove_if(degradations_.begin(), degradations_.end(),
                     [to](const Degradation& d) { return d.until <= to; }),
      degradations_.end());
  degraded = std::min(degraded, c.alpha_access_fraction);
  perf.affected_fraction = degraded;

  // Healthy in-memory traffic, spread across options by plan weight.
  const double healthy_scale =
      c.alpha_access_fraction > 0.0
          ? std::max(0.0, c.alpha_access_fraction - degraded) /
                c.alpha_access_fraction
          : 0.0;
  for (const auto& item : plan_.items) {
    const double w = TrafficWeight(item) * healthy_scale;
    if (w <= 0.0) {
      continue;
    }
    // Count instances currently able to serve.
    int running = 0;
    for (InstanceId id : holdings_[item.option]) {
      const Instance* inst = provider_->Get(id);
      if (inst != nullptr && inst->state == InstanceState::kRunning) {
        ++running;
      }
    }
    const Duration miss_latency = config_.latency_model.params().base_latency +
                                  config_.latency_model.params().miss_penalty;
    if (running == 0) {
      // Nothing to serve from: the whole share goes to the back-end. The mix
      // of hot and cold keys makes it late-shed (hot) under admission.
      mixture.push_back({miss_latency.seconds(), w, true, 2});
      perf.affected_fraction += w;
      continue;
    }
    const double per_node = lambda_actual * w / static_cast<double>(running);
    const NodeLatency nl = config_.latency_model.HitLatency(
        per_node, (*options_)[item.option].type->capacity);
    perf.saturated = perf.saturated || nl.saturated;
    mixture.push_back({nl.mean.seconds(), w * 0.95, false, 0});
    mixture.push_back({nl.p95.seconds(), w * 0.05, false, 0});
  }

  // Misses past alpha go to the back-end (the coldest tail of the keyspace).
  const double miss_w = std::max(0.0, 1.0 - c.alpha_access_fraction);
  if (miss_w > 0.0) {
    const Duration miss_latency = config_.latency_model.params().base_latency +
                                  config_.latency_model.params().miss_penalty;
    mixture.push_back({miss_latency.seconds(), miss_w, true, 1});
  }
  // Writes pay the synchronous write-through to the back-end. The read-side
  // mixture weights were built as fractions of the read stream; rescale and
  // append the write mass. Writes are never shed (dropping one loses data).
  const double write_w = std::max(0.0, 1.0 - c.read_fraction);
  if (write_w > 0.0) {
    for (auto& e : mixture) {
      e.w *= c.read_fraction;
    }
    const Duration write_latency = config_.latency_model.params().base_latency +
                                   config_.latency_model.params().miss_penalty;
    mixture.push_back({write_latency.seconds(), write_w, true, 0});
    perf.affected_fraction *= c.read_fraction;
  }
  perf.hit_fraction = std::max(
      0.0, c.read_fraction * (1.0 - miss_w) - perf.affected_fraction);

  // Admission control: when backend-bound load exceeds the backend's
  // capacity, shed the overflow cold-first (bounded by the shed budget).
  // Shed requests are dropped, so they leave the latency mixture entirely.
  if (resilience_.has_value()) {
    double backend_w = 0.0;
    double cold_w = 0.0;
    double hot_w = 0.0;
    for (const auto& e : mixture) {
      if (e.backend) backend_w += e.w;
      if (e.shed_class == 1) cold_w += e.w;
      if (e.shed_class == 2) hot_w += e.w;
    }
    const ShedSplit split =
        PlanShed(resilience_->admission, lambda_actual * backend_w,
                 lambda_actual, lambda_actual * hot_w, lambda_actual * cold_w);
    if (split.overall > 0.0) {
      double shed = 0.0;
      for (auto& e : mixture) {
        const double rate = e.shed_class == 1   ? split.cold
                            : e.shed_class == 2 ? split.hot
                                                : 0.0;
        shed += e.w * rate;
        e.w *= 1.0 - rate;
      }
      perf.shed_fraction = shed;
      if (obs_ != nullptr) {
        sheds_->Increment();
        obs_->tracer.Shed(to, "cluster", shed);
      }
    }
  }

  // Collapse the mixture into mean and p95.
  double total_w = 0.0;
  double mean = 0.0;
  for (const auto& e : mixture) {
    total_w += e.w;
    mean += e.lat * e.w;
  }
  if (total_w <= 0.0) {
    perf.mean_latency = config_.latency_model.params().base_latency;
    perf.p95_latency = perf.mean_latency;
    return perf;
  }
  mean /= total_w;
  std::sort(mixture.begin(), mixture.end(),
            [](const MixEntry& a, const MixEntry& b) { return a.lat < b.lat; });
  double acc = 0.0;
  double p95 = mixture.back().lat;
  for (const auto& e : mixture) {
    acc += e.w;
    // Strictly exceed the 0.95 mass so a component ending exactly at the
    // boundary doesn't masquerade as the tail.
    if (acc > 0.95 * total_w * (1.0 + 1e-12)) {
      p95 = e.lat;
      break;
    }
  }
  perf.mean_latency = Duration::FromSecondsF(mean);
  perf.p95_latency = Duration::FromSecondsF(p95);
  return perf;
}

std::vector<int> Cluster::ExistingCounts() const {
  std::vector<int> counts(options_->size(), 0);
  for (size_t o = 0; o < holdings_.size(); ++o) {
    for (InstanceId id : holdings_[o]) {
      const Instance* inst = provider_->Get(id);
      if (inst != nullptr && inst->alive()) {
        ++counts[o];
      }
    }
  }
  return counts;
}

void Cluster::Shutdown() {
  for (auto& held : holdings_) {
    for (InstanceId id : held) {
      provider_->Terminate(id);
    }
    held.clear();
  }
  for (InstanceId id : backups_) {
    provider_->Terminate(id);
  }
  backups_.clear();
  for (InstanceId id : replacements_) {
    provider_->Terminate(id);
  }
  replacements_.clear();
}

}  // namespace spotcache
