// Property test: the flat open-addressing LruCache is behaviorally identical
// to the reference std::list + std::unordered_map implementation.
//
// Both caches consume the same randomized op stream (puts with varying sizes,
// gets, erases, peeks, capacity changes, clears); after every op the return
// values must agree, and the eviction callbacks must fire for the same keys
// in the same order. Counters and byte accounting are compared throughout, so
// any divergence in LRU order, eviction choice, or overwrite handling fails
// with the op index in hand. One phase fills with many small items and then
// churns large ones, so the arena shrinks and the buckets rehash down while
// the comparison runs.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/lru_cache.h"
#include "src/cache/lru_cache_ref.h"
#include "src/util/rng.h"

namespace spotcache {
namespace {

struct Evicted {
  uint64_t key;
  size_t bytes;
  bool operator==(const Evicted&) const = default;
};

template <typename RefCache, typename FlatCache>
void DriveEquivalence(RefCache& ref, FlatCache& flat, uint64_t seed,
                      size_t ops, uint64_t key_space,
                      std::vector<Evicted>* ref_evicted,
                      std::vector<Evicted>* flat_evicted) {
  Rng rng(seed);
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t key = rng.NextBelow(key_space);
    const double roll = rng.NextDouble();
    SCOPED_TRACE("op " + std::to_string(i) + " key " + std::to_string(key));
    if (roll < 0.45) {
      const size_t bytes = 1 + rng.NextBelow(4096);
      const bool a = ref.Put(key, static_cast<uint32_t>(key), bytes);
      const bool b = flat.Put(key, static_cast<uint32_t>(key), bytes);
      ASSERT_EQ(a, b);
    } else if (roll < 0.80) {
      const auto a = ref.Get(key);
      const auto b = flat.Get(key);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        ASSERT_EQ(*a, *b);
      }
    } else if (roll < 0.90) {
      ASSERT_EQ(ref.Erase(key), flat.Erase(key));
    } else if (roll < 0.96) {
      const auto* pa = ref.Peek(key);
      const auto* pb = flat.Peek(key);
      ASSERT_EQ(pa == nullptr, pb == nullptr);
      if (pa != nullptr) {
        ASSERT_EQ(*pa, *pb);
      }
      ASSERT_EQ(ref.Contains(key), flat.Contains(key));
    } else if (roll < 0.99) {
      const size_t cap = 64 * 1024 + rng.NextBelow(256 * 1024);
      ref.SetCapacity(cap);
      flat.SetCapacity(cap);
    } else {
      ref.Clear();
      flat.Clear();
    }
    ASSERT_EQ(ref.size(), flat.size());
    ASSERT_EQ(ref.bytes_used(), flat.bytes_used());
    ASSERT_EQ(ref.hits(), flat.hits());
    ASSERT_EQ(ref.misses(), flat.misses());
    ASSERT_EQ(ref.evictions(), flat.evictions());
    ASSERT_EQ(ref_evicted->size(), flat_evicted->size());
  }
  ASSERT_EQ(*ref_evicted, *flat_evicted);
  // Final structural check: identical MRU-to-LRU order.
  std::vector<uint64_t> ref_order, flat_order;
  ref.ForEachMruToLru([&](const auto& e) { ref_order.push_back(e.key); });
  flat.ForEachMruToLru([&](const auto& e) { flat_order.push_back(e.key); });
  ASSERT_EQ(ref_order, flat_order);
}

using V = uint32_t;

TEST(LruEquivalence, RandomizedOpStreamMatchesReference) {
  constexpr size_t kOps = 100'000;
  ReferenceLruCache<uint64_t, V> ref(256 * 1024);
  LruCache<uint64_t, V> flat(256 * 1024);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  DriveEquivalence(ref, flat, /*seed=*/0x10c4, kOps, /*key_space=*/700,
                   &ref_evicted, &flat_evicted);
  EXPECT_GT(ref_evicted.size(), 1000u) << "workload never evicted; weak test";
}

// Same property through the templated (non-std::function) eviction hook.
struct RecordingHook {
  std::vector<Evicted>* out;
  template <typename Entry>
  void operator()(const Entry& e) const {
    out->push_back({e.key, e.bytes});
  }
};

TEST(LruEquivalence, TemplatedHookMatchesReference) {
  constexpr size_t kOps = 50'000;
  ReferenceLruCache<uint64_t, V> ref(128 * 1024);
  LruCache<uint64_t, V, std::hash<uint64_t>, RecordingHook> flat(128 * 1024);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionHook(RecordingHook{&flat_evicted});
  DriveEquivalence(ref, flat, /*seed=*/0xfeed, kOps, /*key_space=*/400,
                   &ref_evicted, &flat_evicted);
  EXPECT_GT(ref_evicted.size(), 500u);
}

TEST(LruEquivalence, TinyCapacityEdgeCases) {
  // Single-slot-ish capacity: every put evicts; oversized puts are rejected.
  ReferenceLruCache<uint64_t, V> ref(100);
  LruCache<uint64_t, V> flat(100);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_EQ(ref.Put(k, static_cast<V>(k), 60), flat.Put(k, static_cast<V>(k), 60));
    ASSERT_EQ(ref.Put(k, static_cast<V>(k), 200),
              flat.Put(k, static_cast<V>(k), 200));  // oversized: rejected
  }
  EXPECT_EQ(ref_evicted, flat_evicted);
  EXPECT_EQ(ref.size(), flat.size());
  EXPECT_EQ(ref.bytes_used(), flat.bytes_used());
}

TEST(LruEquivalence, OverwriteShrinkAndGrowKeepsAccounting) {
  // The flat cache's in-place overwrite must match erase+reinsert semantics:
  // same bytes accounting, same eviction victims, entry lands at MRU.
  ReferenceLruCache<uint64_t, V> ref(10'000);
  LruCache<uint64_t, V> flat(10'000);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  Rng rng(0x0eed);
  for (size_t i = 0; i < 20'000; ++i) {
    const uint64_t key = rng.NextBelow(12);
    const size_t bytes = 500 + rng.NextBelow(5000);  // often near capacity
    ASSERT_EQ(ref.Put(key, static_cast<V>(i), bytes),
              flat.Put(key, static_cast<V>(i), bytes));
    ASSERT_EQ(ref.bytes_used(), flat.bytes_used());
    ASSERT_EQ(ref.evictions(), flat.evictions());
  }
  EXPECT_EQ(ref_evicted, flat_evicted);
}

TEST(LruEquivalence, ArenaShrinkMidStreamMatchesReference) {
  // Fill with 20k items of 8-64 B, then churn 1-4 KB puts among gets and
  // erases over both key ranges: the live count falls ~40x, so the arena
  // shrinks and the buckets rehash down several times mid-stream.
  constexpr size_t kCapacity = 1 << 20;
  constexpr uint64_t kSmallKeys = 20'000;
  ReferenceLruCache<uint64_t, V> ref(kCapacity);
  LruCache<uint64_t, V> flat(kCapacity);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  const auto expect_same_order = [&] {
    std::vector<uint64_t> ref_order, flat_order;
    ref.ForEachMruToLru([&](const auto& e) { ref_order.push_back(e.key); });
    flat.ForEachMruToLru([&](const auto& e) { flat_order.push_back(e.key); });
    ASSERT_EQ(ref_order, flat_order);
  };
  Rng rng(0x5b1f);
  for (uint64_t k = 0; k < kSmallKeys; ++k) {
    const size_t bytes = 8 + rng.NextBelow(57);
    ASSERT_EQ(ref.Put(k, static_cast<V>(k), bytes),
              flat.Put(k, static_cast<V>(k), bytes));
  }
  expect_same_order();
  const size_t full = flat.index_bytes();
  size_t smallest = full;
  for (size_t i = 0; i < 60'000; ++i) {
    SCOPED_TRACE("churn op " + std::to_string(i));
    const double roll = rng.NextDouble();
    if (roll < 0.5) {
      const uint64_t key = kSmallKeys + rng.NextBelow(2000);
      const size_t bytes = 1024 + rng.NextBelow(3073);
      ASSERT_EQ(ref.Put(key, static_cast<V>(key), bytes),
                flat.Put(key, static_cast<V>(key), bytes));
    } else {
      const uint64_t key = rng.NextBelow(kSmallKeys + 2000);
      if (roll < 0.9) {
        const auto a = ref.Get(key);
        const auto b = flat.Get(key);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          ASSERT_EQ(*a, *b);
        }
      } else {
        ASSERT_EQ(ref.Erase(key), flat.Erase(key));
      }
    }
    ASSERT_EQ(ref.size(), flat.size());
    ASSERT_EQ(ref.bytes_used(), flat.bytes_used());
    ASSERT_EQ(ref_evicted.size(), flat_evicted.size());
    smallest = std::min(smallest, flat.index_bytes());
    if (i % 5000 == 0) {
      expect_same_order();
    }
  }
  ASSERT_EQ(ref_evicted, flat_evicted);
  ASSERT_EQ(ref.hits(), flat.hits());
  ASSERT_EQ(ref.misses(), flat.misses());
  expect_same_order();
  EXPECT_LT(smallest * 8, full) << "the arena never shrank; weak test";
}

TEST(LruEquivalence, ReserveDoesNotChangeBehavior) {
  ReferenceLruCache<uint64_t, V> ref(64 * 1024);
  LruCache<uint64_t, V> flat(64 * 1024);
  flat.Reserve(4096);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  DriveEquivalence(ref, flat, /*seed=*/0xab1e, /*ops=*/30'000,
                   /*key_space=*/300, &ref_evicted, &flat_evicted);
}

}  // namespace
}  // namespace spotcache
