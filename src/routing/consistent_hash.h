// Weighted consistent hashing.
//
// mcrouter's WeightedCh3-style behaviour, realized as a classic virtual-node
// ring: each node owns round(weight * kVnodesPerUnitWeight) pseudo-random
// positions; a key maps to the first vnode clockwise of its hash. Weight
// changes and node arrivals/departures only move the keys they must — the
// property that lets the paper's controller rebalance hot/cold weights every
// slot without reshuffling the cluster.
//
// The ring is one sorted vector of (position, node) pairs. Lookups sit on
// the proxy's per-key path and membership edits are rare, so every edit also
// rebuilds a table over the top bits of the hash, about one entry per vnode:
// entry i holds the first vnode at or past the start of the i-th slice of
// hash space. A lookup reads its slice's entry and scans forward from it
// (about one step), finding exactly the vnode std::lower_bound would.

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace spotcache {

class ConsistentHashRing {
 public:
  /// Virtual nodes granted per 1.0 of weight. More vnodes = smoother
  /// ownership at higher ring-maintenance cost.
  static constexpr int kVnodesPerUnitWeight = 64;

  /// Adds a node or updates its weight (weight >= 0; 0 removes it from the
  /// ring but remembers nothing).
  void SetNode(uint64_t node_id, double weight);

  void RemoveNode(uint64_t node_id) { SetNode(node_id, 0.0); }

  bool Contains(uint64_t node_id) const { return weights_.count(node_id) > 0; }
  size_t node_count() const { return weights_.size(); }
  bool empty() const { return ring_.empty(); }

  /// The node owning `key_hash`; nullopt on an empty ring.
  std::optional<uint64_t> NodeFor(uint64_t key_hash) const;

  /// The vnodes as (position, node) pairs, sorted by position (tests).
  const std::vector<std::pair<uint64_t, uint64_t>>& vnodes() const {
    return ring_;
  }

  /// Fraction of hash space owned by each node (diagnostics / tests).
  std::unordered_map<uint64_t, double> OwnershipFractions() const;

  double WeightOf(uint64_t node_id) const;

 private:
  void RebuildSlices();

  // (vnode position, node id), sorted by position; positions are unique.
  std::vector<std::pair<uint64_t, uint64_t>> ring_;
  // slices_[i]: index in ring_ of the first vnode whose position is at or
  // past i << slice_shift_ (ring_.size() when none is).
  std::vector<uint32_t> slices_;
  int slice_shift_ = 63;
  std::unordered_map<uint64_t, double> weights_;
};

}  // namespace spotcache
