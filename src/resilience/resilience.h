// The simulator's opt-in resilience config and its shed planner.
//
// Cluster walks the degradation ladder analytically at sub-step granularity:
//
//   primary cache node  ->  passive backup  ->  backend store  ->  shed
//
// With `ResilienceConfig::enabled`, Cluster adds three things on top of the
// paper's recovery path: a CircuitBreaker per market option fed by
// replacement-launch outcomes, in-step retries of failed launches under
// `ClusterConfig::replacement_retry`, and PlanShed below (cold-pool traffic
// first, never beyond the shed budget). On real sockets the proxy walks the
// same ladder with its own per-upstream CircuitBreakers
// (src/proxy/upstream_pool.h).
//
// Everything is a pure function of (seed, recorded state): breaker probe
// times and retry delays are stateless hashes and shed plans are closed-form,
// so a run's resilience decisions replay bit-identically under the same seed
// (test_determinism). Off by default; with it off no output changes.

#pragma once

#include <cstdint>
#include <string>

#include "src/resilience/circuit_breaker.h"

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

/// Analytic cold-first shed plan. `backend_ops` is the total backend-bound
/// load (ops/s) out of `total_ops` offered to the whole system; `hot_ops` and
/// `cold_ops` are the *sheddable* portions of that load (writes etc. are
/// backend-bound but never shed). The returned per-class rates absorb the
/// overflow beyond backend capacity, cold first, capped so shed ops never
/// exceed shed_budget * total_ops.
ShedSplit PlanShed(const AdmissionConfig& config, double backend_ops,
                   double total_ops, double hot_ops, double cold_ops);

struct ResilienceConfig {
  /// Master switch. When false every consumer keeps its legacy behavior
  /// bit-for-bit.
  bool enabled = false;
  /// Seed for breaker probe jitter and replacement-retry jitter.
  uint64_t seed = 0x7e51ULL;
  CircuitBreakerConfig breaker;
  AdmissionConfig admission;
};

/// Returns "" when valid, else an actionable message naming the field.
std::string ValidateResilienceConfig(const ResilienceConfig& config);

}  // namespace spotcache
