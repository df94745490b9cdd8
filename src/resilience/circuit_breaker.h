// Per-node circuit breaker: closed -> open -> half-open, mcrouter soft-TKO
// style, with deterministic seed-driven probe scheduling.
//
// Closed breakers pass everything and count consecutive failures; at the
// threshold the breaker opens and refuses traffic until a probe time of
//   trip_time + open_base * open_backoff^(streak-1) * jitter(seed, node, trip)
// — a pure hash, no RNG state, so two same-seed runs probe at identical
// sim-times while different nodes' probes de-synchronize. At the probe time
// the breaker is half-open: requests are admitted as probes; enough
// consecutive probe successes close it, any probe failure re-opens it with an
// escalated window (capped at open_max).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/time.h"

namespace spotcache {

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

std::string_view ToString(BreakerState s);

struct CircuitBreakerConfig {
  /// Consecutive failures that trip a closed breaker.
  int failure_threshold = 3;
  /// Base open window before the first probe.
  Duration open_base = Duration::Seconds(30);
  /// Escalation factor applied per consecutive trip (>= 1).
  double open_backoff = 2.0;
  /// Cap on the open window.
  Duration open_max = Duration::Minutes(10);
  /// Consecutive half-open probe successes required to close.
  int half_open_successes = 2;
  /// Probe-time jitter amplitude in [0, 1): the open window is scaled by
  /// 1 + jitter * (2u - 1) with u a pure hash of (seed, node, trip count).
  double probe_jitter = 0.25;
};

/// Returns "" when valid, else an actionable message.
std::string Validate(const CircuitBreakerConfig& config);

class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  CircuitBreaker(const CircuitBreakerConfig& config, uint64_t seed,
                 uint64_t node_id)
      : config_(config), seed_(seed), node_id_(node_id) {}

  /// State as of `now` (an open breaker reports half-open once the probe
  /// time has arrived).
  BreakerState state(SimTime now) const;

  /// Whether the breaker is closed. Unlike state(), needs no clock: only an
  /// open breaker's state depends on the time.
  bool closed() const { return !open_; }

  /// Whether a request may be sent to the node at `now`. Closed: always.
  /// Open: only once the probe time arrives (the request *is* the probe).
  bool Allow(SimTime now) const { return state(now) != BreakerState::kOpen; }

  void RecordSuccess(SimTime now);
  void RecordFailure(SimTime now);

  /// Times the breaker has tripped over its lifetime.
  int64_t trips() const { return trips_; }
  /// Consecutive trips in the current outage (resets when the breaker
  /// closes); drives the open-window escalation.
  int trip_streak() const { return trip_streak_; }
  /// Next probe time while open (meaningless when closed).
  SimTime probe_at() const { return probe_at_; }

 private:
  void Trip(SimTime now);

  CircuitBreakerConfig config_;
  uint64_t seed_ = 0;
  uint64_t node_id_ = 0;

  bool open_ = false;  // open or half-open, split by probe_at_
  SimTime probe_at_;
  int consecutive_failures_ = 0;
  int probe_successes_ = 0;
  int trip_streak_ = 0;
  int64_t trips_ = 0;
};

}  // namespace spotcache
