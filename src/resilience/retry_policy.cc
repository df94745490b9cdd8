#include "src/resilience/retry_policy.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"

namespace spotcache {

std::string Validate(const RetryPolicyConfig& config) {
  if (config.initial_delay <= Duration::Micros(0)) {
    return "retry initial_delay must be positive";
  }
  if (!std::isfinite(config.backoff_factor) || config.backoff_factor < 1.0) {
    return "retry backoff_factor must be finite and >= 1";
  }
  if (config.max_delay < config.initial_delay) {
    return "retry max_delay must be >= initial_delay";
  }
  if (config.max_attempts < 1) {
    return "retry max_attempts must be >= 1";
  }
  if (!std::isfinite(config.jitter) || config.jitter < 0.0 ||
      config.jitter >= 1.0) {
    return "retry jitter must be in [0, 1)";
  }
  return "";
}

RetryPolicy::RetryPolicy(const RetryPolicyConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {}

double RetryPolicy::HashUnit(uint64_t seed, uint64_t op_id, uint64_t attempt) {
  // One SplitMix64 pass over a mixed key: cheap, stateless, and independent of
  // call order (unlike drawing from a shared Rng).
  uint64_t state = seed ^ (op_id * 0x9e3779b97f4a7c15ULL) ^
                   (attempt * 0xbf58476d1ce4e5b9ULL);
  const uint64_t bits = SplitMix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

Duration RetryPolicy::Delay(uint64_t op_id, int attempt) const {
  const double initial_s = config_.initial_delay.seconds();
  const double cap_s = config_.max_delay.seconds();
  double delay_s = initial_s;
  // Decorrelated jitter: each step samples uniformly between the initial
  // delay and the previous delay widened by (backoff, jitter), then caps.
  // Computed iteratively from attempt 1 so the value is a pure function of
  // (seed, op_id, attempt) without any carried state.
  for (int k = 2; k <= attempt; ++k) {
    const double hi = std::min(
        cap_s, delay_s * config_.backoff_factor * (1.0 + config_.jitter));
    const double lo = std::min(initial_s, hi);
    delay_s = lo + (hi - lo) * HashUnit(seed_, op_id, static_cast<uint64_t>(k));
  }
  return Duration::FromSecondsF(std::min(delay_s, cap_s));
}

}  // namespace spotcache
