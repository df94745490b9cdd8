#include "src/routing/consistent_hash.h"

#include <algorithm>
#include <cmath>

#include "src/routing/hash.h"

namespace spotcache {

namespace {

bool PositionBefore(const std::pair<uint64_t, uint64_t>& vnode, uint64_t pos) {
  return vnode.first < pos;
}

}  // namespace

void ConsistentHashRing::SetNode(uint64_t node_id, double weight) {
  // Drop existing vnodes.
  if (weights_.erase(node_id) > 0) {
    std::erase_if(ring_, [node_id](const auto& vnode) {
      return vnode.second == node_id;
    });
  }
  if (weight <= 0.0) {
    RebuildSlices();
    return;
  }
  const int count = std::max(1, static_cast<int>(std::lround(
                                    weight * kVnodesPerUnitWeight)));
  // Append the new vnodes unsorted, then merge them into the sorted prefix.
  const auto old_size = static_cast<ptrdiff_t>(ring_.size());
  for (int r = 0; r < count; ++r) {
    const uint64_t pos = HashCombine(HashU64(node_id), static_cast<uint64_t>(r));
    // A position another node already holds stays with it (collisions are
    // ~impossible at 64 bits, but the ring must stay consistent regardless).
    const auto old_end = ring_.begin() + old_size;
    const auto it = std::lower_bound(ring_.begin(), old_end, pos,
                                     PositionBefore);
    if (it == old_end || it->first != pos) {
      ring_.emplace_back(pos, node_id);
    }
  }
  // Two vnode indices of this node hashing alike keep one vnode.
  std::sort(ring_.begin() + old_size, ring_.end());
  ring_.erase(std::unique(ring_.begin() + old_size, ring_.end()), ring_.end());
  std::inplace_merge(ring_.begin(), ring_.begin() + old_size, ring_.end());
  weights_.emplace(node_id, weight);
  RebuildSlices();
}

void ConsistentHashRing::RebuildSlices() {
  // The smallest power-of-two slice count, at least 2, not below the vnode
  // count.
  int bits = 1;
  while (bits < 32 && (size_t{1} << bits) < ring_.size()) {
    ++bits;
  }
  slice_shift_ = 64 - bits;
  slices_.assign(size_t{1} << bits, 0);
  size_t i = 0;
  for (size_t slice = 0; slice < slices_.size(); ++slice) {
    const uint64_t start = uint64_t{slice} << slice_shift_;
    while (i < ring_.size() && ring_[i].first < start) {
      ++i;
    }
    slices_[slice] = static_cast<uint32_t>(i);
  }
}

std::optional<uint64_t> ConsistentHashRing::NodeFor(uint64_t key_hash) const {
  if (ring_.empty()) {
    return std::nullopt;
  }
  // Every vnode between the slice's start and key_hash lies below key_hash,
  // so the scan stops at std::lower_bound's answer.
  size_t i = slices_[key_hash >> slice_shift_];
  while (i < ring_.size() && ring_[i].first < key_hash) {
    ++i;
  }
  if (i == ring_.size()) {
    i = 0;  // wrap around
  }
  return ring_[i].second;
}

std::unordered_map<uint64_t, double> ConsistentHashRing::OwnershipFractions() const {
  std::unordered_map<uint64_t, double> out;
  if (ring_.empty()) {
    return out;
  }
  // Each vnode owns the arc from the previous position (exclusive) to itself.
  const double full = std::pow(2.0, 64);
  uint64_t prev = ring_.back().first;  // wrap: last vnode precedes first
  bool first = true;
  for (const auto& [pos, node] : ring_) {
    uint64_t arc;
    if (first) {
      arc = pos + (~prev) + 1;  // wrap-around arc length
      first = false;
    } else {
      arc = pos - prev;
    }
    out[node] += static_cast<double>(arc) / full;
    prev = pos;
  }
  return out;
}

double ConsistentHashRing::WeightOf(uint64_t node_id) const {
  auto it = weights_.find(node_id);
  return it == weights_.end() ? 0.0 : it->second;
}

}  // namespace spotcache
