// MetricsHub: epoch-snapshot aggregation of per-shard metric registries.
//
// Each reactor shard owns a private MetricsRegistry that only its own thread
// touches — the per-request hot path stays lock- and atomic-free. Off the
// hot path (a periodic epoll-timeout tick, and right before answering a
// scrape), a shard publishes a full copy of its registry into its hub slot
// under the hub mutex and bumps the flush epoch. A scrape aggregates the
// published slots — counter sums, gauge sums, histogram merges — so it only
// ever observes registry states that were complete at some epoch boundary,
// never a counter mid-update. The epoch is exported as the
// `obs/flush_epoch` gauge so tests (and operators) can verify snapshots are
// advancing.
//
// Aggregation semantics: counters and histograms add exactly (every
// registry histogram shares one LogHistogram geometry, so merges are
// bucket-exact). Gauges sum, which is exact for additive gauges and an
// upper bound for per-shard high-water marks (documented in DESIGN.md
// "Sharding").

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics_registry.h"

namespace spotcache {

class MetricsHub {
 public:
  /// One independent publisher slot per shard; `shards` is also what the
  /// `obs/shards` meta-gauge reports.
  explicit MetricsHub(size_t shards);

  /// Copies `registry` into `slot` under the hub lock and advances the
  /// flush epoch. Called by the owning thread only, off the hot path.
  void Publish(size_t slot, const MetricsRegistry& registry);

  /// Monotone count of completed Publish() calls.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Sums the published snapshots into one registry (plus the
  /// `obs/flush_epoch` and `obs/shards` meta-gauges).
  MetricsRegistry Aggregate() const;

  /// Prometheus text of Aggregate() — what the sharded scrape endpoint
  /// serves.
  std::string RenderPrometheus() const;

 private:
  mutable std::mutex mu_;
  std::vector<MetricsRegistry> snapshots_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace spotcache
