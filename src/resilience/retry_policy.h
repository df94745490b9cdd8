// Bounded retries with capped exponential backoff and decorrelated jitter.
//
// Every delay is a pure function of (seed, op_id, attempt): the policy carries
// no mutable state, so two runs of the same configuration replay the exact
// same retry schedule (the property test_determinism asserts). Attempt 1
// always waits exactly `initial_delay` — the old fixed
// `ClusterConfig::replacement_retry` constant slots in unchanged, which keeps
// seed figures reproducible when resilience is disabled — and
// attempts 2..N follow AWS-style decorrelated jitter: each delay is drawn
// (by hash, not by a stateful RNG) from [initial, prev * backoff * (1+jitter)]
// and capped at `max_delay`.

#pragma once

#include <cstdint>
#include <string>

#include "src/util/time.h"

namespace spotcache {

struct RetryPolicyConfig {
  /// Delay before the first retry; also the degradation horizon a caller
  /// should assume when it cannot retry in place.
  Duration initial_delay = Duration::Minutes(10);
  /// Multiplier on the previous delay's upper bound (>= 1).
  double backoff_factor = 2.0;
  /// Hard cap on any single delay.
  Duration max_delay = Duration::Hours(1);
  /// Total attempts budget (including the first retry). Further retries are
  /// refused; callers fall back to slower reconciliation.
  int max_attempts = 6;
  /// Decorrelated-jitter amplitude in [0, 1): widens the sampling interval of
  /// attempts >= 2 so synchronized failures do not retry in lockstep.
  double jitter = 0.5;
};

/// Returns "" when valid, else an actionable message.
std::string Validate(const RetryPolicyConfig& config);

class RetryPolicy {
 public:
  RetryPolicy() : RetryPolicy(RetryPolicyConfig{}, 0) {}
  RetryPolicy(const RetryPolicyConfig& config, uint64_t seed);

  const RetryPolicyConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Delay before retry `attempt` (1-based) of operation `op_id`.
  /// Pure: same (seed, op_id, attempt) -> same delay. Attempt 1 returns
  /// exactly `initial_delay`.
  Duration Delay(uint64_t op_id, int attempt) const;

  /// True once `attempts` retries have been spent (budget exhausted).
  bool Exhausted(int attempts) const { return attempts >= config_.max_attempts; }

  /// Stateless hash -> uniform double in [0, 1). Shared with the breaker's
  /// probe jitter so all resilience randomness flows from one seeded family.
  static double HashUnit(uint64_t seed, uint64_t op_id, uint64_t attempt);

 private:
  RetryPolicyConfig config_;
  uint64_t seed_ = 0;
};

}  // namespace spotcache
