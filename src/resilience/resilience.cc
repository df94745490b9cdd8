#include "src/resilience/resilience.h"

namespace spotcache {

std::string ValidateResilienceConfig(const ResilienceConfig& config) {
  if (std::string err = Validate(config.health); !err.empty()) {
    return err;
  }
  if (std::string err = Validate(config.breaker); !err.empty()) {
    return err;
  }
  if (std::string err = Validate(config.retry); !err.empty()) {
    return err;
  }
  if (std::string err = Validate(config.admission); !err.empty()) {
    return err;
  }
  return "";
}

ResilienceLayer::ResilienceLayer(const ResilienceConfig& config)
    : config_(config),
      health_(config.health),
      admission_(config.admission),
      retry_(config.retry, config.seed) {}

void ResilienceLayer::AttachObs(Obs* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    trips_counter_ = closes_counter_ = retries_counter_ = sheds_counter_ =
        nullptr;
    return;
  }
  auto& reg = obs_->registry;
  trips_counter_ = reg.GetCounter("resilience/breaker_trips");
  closes_counter_ = reg.GetCounter("resilience/breaker_closes");
  retries_counter_ = reg.GetCounter("resilience/retries");
  sheds_counter_ = reg.GetCounter("resilience/sheds");
}

ResilienceLayer::BreakerStateCounts ResilienceLayer::CountBreakerStates(
    SimTime now) const {
  BreakerStateCounts counts;
  for (const auto& [id, breaker] : breakers_) {
    switch (breaker.state(now)) {
      case BreakerState::kClosed:
        ++counts.closed;
        break;
      case BreakerState::kOpen:
        ++counts.open;
        break;
      case BreakerState::kHalfOpen:
        ++counts.half_open;
        break;
    }
  }
  return counts;
}

CircuitBreaker& ResilienceLayer::BreakerFor(uint64_t node_id) {
  auto it = breakers_.find(node_id);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(node_id,
                      CircuitBreaker(config_.breaker, config_.seed, node_id))
             .first;
  }
  return it->second;
}

bool ResilienceLayer::AllowRequest(uint64_t node_id, SimTime now) {
  const auto it = breakers_.find(node_id);
  return it == breakers_.end() || it->second.Allow(now);
}

void ResilienceLayer::RecordOutcome(uint64_t node_id, SimTime now,
                                    HealthOutcome outcome) {
  health_.Record(node_id, outcome);
  CircuitBreaker& breaker = BreakerFor(node_id);
  const BreakerState before = breaker.state(now);
  const double weight = FailureWeight(outcome);
  if (weight >= 1.0) {
    breaker.RecordFailure(now);
  } else if (weight <= 0.0) {
    breaker.RecordSuccess(now);
  }
  // Partial failures (served-by-backup) count against health but neither trip
  // nor heal the breaker: the primary never saw the request.
  const BreakerState after = breaker.state(now);
  if (after == before) {
    return;
  }
  if (after == BreakerState::kOpen && before != BreakerState::kOpen) {
    ++breaker_trips_;
    if (trips_counter_ != nullptr) trips_counter_->Increment();
  }
  if (after == BreakerState::kClosed && closes_counter_ != nullptr) {
    closes_counter_->Increment();
  }
  if (obs_ != nullptr) {
    obs_->tracer.BreakerTransition(now, node_id, ToString(before),
                                   ToString(after));
  }
}

void ResilienceLayer::CountRetry(SimTime now, uint64_t op_id, int attempt,
                                 Duration delay) {
  if (retries_counter_ != nullptr) retries_counter_->Increment();
  if (obs_ != nullptr) {
    obs_->tracer.RetryAttempt(now, op_id, attempt, delay);
  }
}

void ResilienceLayer::RecordShed(SimTime now, std::string_view scope,
                                 double fraction) {
  if (sheds_counter_ != nullptr) sheds_counter_->Increment();
  if (obs_ != nullptr) {
    obs_->tracer.Shed(now, scope, fraction);
  }
}

}  // namespace spotcache
