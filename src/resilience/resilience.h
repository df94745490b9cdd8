// The simulator's resilience layer: health tracking, per-node circuit
// breakers, retry/backoff policy, and admission control, bundled behind one
// config and one obs hookup. Cluster::Step consults it to model the
// degradation ladder analytically at sub-step granularity:
//
//   primary cache node  ->  passive backup  ->  backend store  ->  shed
//
// Market options are guarded by circuit breakers fed from replacement-launch
// outcomes (health ids in kOptionHealthIdBase's range), and the backend by
// the AdmissionController's PlanShed (cold-pool traffic first, never beyond
// the shed budget). On real sockets the proxy walks the same ladder with its
// own per-upstream CircuitBreakers (src/proxy/upstream_pool.h).
//
// Everything here is a pure function of (seed, recorded state): breaker probe
// times and retry delays are stateless hashes, shed plans are closed-form,
// and all iteration is over sorted ids — so a run's resilience decisions
// replay bit-identically under the same seed (test_determinism).
//
// The layer is OFF by default (`ResilienceConfig::enabled = false`); with it
// off, no component changes behavior and all prior figures stay bit-exact.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/obs/obs.h"
#include "src/resilience/admission_controller.h"
#include "src/resilience/circuit_breaker.h"
#include "src/resilience/health_tracker.h"
#include "src/resilience/retry_policy.h"
#include "src/util/time.h"

namespace spotcache {

struct ResilienceConfig {
  /// Master switch. When false the layer is never constructed and every
  /// consumer keeps its legacy behavior bit-for-bit.
  bool enabled = false;
  /// Seed for all resilience randomness (breaker probe jitter, retry jitter).
  uint64_t seed = 0x7e51ULL;
  HealthConfig health;
  CircuitBreakerConfig breaker;
  RetryPolicyConfig retry;
  AdmissionConfig admission;
};

/// Returns "" when valid, else an actionable message naming the field.
std::string ValidateResilienceConfig(const ResilienceConfig& config);

class ResilienceLayer {
 public:
  /// Health / breaker ids for market options (Cluster's replacement retries)
  /// live in a reserved id range so they never collide with instance ids.
  static constexpr uint64_t kOptionHealthIdBase = 0xF000'0000'0000'0000ULL;

  explicit ResilienceLayer(const ResilienceConfig& config);

  /// Resolves counters once; pass nullptr to detach.
  void AttachObs(Obs* obs);

  const ResilienceConfig& config() const { return config_; }
  HealthTracker& health() { return health_; }
  const HealthTracker& health() const { return health_; }
  const AdmissionController& admission() const { return admission_; }
  const RetryPolicy& retry() const { return retry_; }

  /// Breaker population by state as of `now` (for stats surfaces).
  struct BreakerStateCounts {
    int closed = 0;
    int open = 0;
    int half_open = 0;
  };
  BreakerStateCounts CountBreakerStates(SimTime now) const;

  /// The node's breaker, created closed on first use.
  CircuitBreaker& BreakerFor(uint64_t node_id);
  /// Whether the node may be sent a request at `now` (true for unknown
  /// nodes). An open breaker's first allowed request is its probe.
  bool AllowRequest(uint64_t node_id, SimTime now);

  /// Feeds one outcome into health + the node's breaker, and publishes any
  /// breaker transition it caused (trace event + trip/close counters).
  void RecordOutcome(uint64_t node_id, SimTime now, HealthOutcome outcome);

  /// Publishes one scheduled retry (counter + trace event).
  void CountRetry(SimTime now, uint64_t op_id, int attempt, Duration delay);
  /// Publishes an analytic shed decision (counter + trace event).
  void RecordShed(SimTime now, std::string_view scope, double fraction);

  int64_t breaker_trips() const { return breaker_trips_; }

 private:
  ResilienceConfig config_;
  HealthTracker health_;
  AdmissionController admission_;
  RetryPolicy retry_;
  // std::map for sorted, deterministic iteration in exports/tests.
  std::map<uint64_t, CircuitBreaker> breakers_;

  Obs* obs_ = nullptr;
  Counter* trips_counter_ = nullptr;
  Counter* closes_counter_ = nullptr;
  Counter* retries_counter_ = nullptr;
  Counter* sheds_counter_ = nullptr;

  int64_t breaker_trips_ = 0;
};

}  // namespace spotcache
