// Per-node health accounting: an EWMA failure rate over request outcomes.
//
// Mirrors mcrouter's failure-rate tracking (the paper's §4.2 load balancer is
// "mcrouter-like"): every data-path outcome — served normally, served by the
// passive backup, timed out, errored, revoked — folds into one exponentially
// weighted failure score per node. The circuit breaker trips off this score
// plus a consecutive-failure count. Updates are O(1), and iteration-order
// independent (each node's score depends only on its own outcome sequence),
// so health state is bit-reproducible under a fixed seed.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace spotcache {

/// Outcome of one request (or one control-plane probe) against a node.
enum class HealthOutcome : uint8_t {
  kOk,              // served normally
  kServedByBackup,  // degraded: the passive backup answered for it
  kTimeout,         // saturated / too slow
  kError,           // hard failure (no node, launch rejected)
  kRevoked,         // the instance was revoked out from under us
};

std::string_view ToString(HealthOutcome o);

/// Failure weight folded into the EWMA (kOk = 0, backup-served = partial).
double FailureWeight(HealthOutcome o);

struct HealthConfig {
  /// EWMA smoothing: score += alpha * (weight - score) per outcome.
  double ewma_alpha = 0.2;
  /// Failure rate at or above which a node reports unhealthy.
  double unhealthy_threshold = 0.5;
};

/// Returns "" when valid, else an actionable message.
std::string Validate(const HealthConfig& config);

class HealthTracker {
 public:
  HealthTracker() : HealthTracker(HealthConfig{}) {}
  explicit HealthTracker(const HealthConfig& config) : config_(config) {}

  const HealthConfig& config() const { return config_; }

  void Record(uint64_t node_id, HealthOutcome outcome);

  /// EWMA failure rate in [0, 1]; 0 for unknown nodes (innocent until
  /// proven flaky).
  double FailureRate(uint64_t node_id) const;
  bool Healthy(uint64_t node_id) const {
    return FailureRate(node_id) < config_.unhealthy_threshold;
  }
  /// Outcomes recorded against the node (0 if unknown).
  int64_t SampleCount(uint64_t node_id) const;

  size_t tracked_nodes() const { return nodes_.size(); }
  /// Tracked node ids, sorted (deterministic iteration for exports/tests).
  std::vector<uint64_t> NodeIds() const;

 private:
  struct NodeHealth {
    double failure_rate = 0.0;
    int64_t samples = 0;
  };

  HealthConfig config_;
  std::unordered_map<uint64_t, NodeHealth> nodes_;
};

}  // namespace spotcache
