#include "src/cache/lru_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/lru_cache_ref.h"
#include "src/util/rng.h"

namespace spotcache {
namespace {

using Cache = LruCache<uint64_t, std::string>;

TEST(LruCache, PutGetRoundTrip) {
  Cache c(1000);
  EXPECT_TRUE(c.Put(1, "one", 10));
  const auto v = c.Get(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "one");
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes_used(), 10u);
}

TEST(LruCache, MissOnAbsent) {
  Cache c(1000);
  EXPECT_FALSE(c.Get(42).has_value());
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 0u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  Cache c(30);
  c.Put(1, "a", 10);
  c.Put(2, "b", 10);
  c.Put(3, "c", 10);
  c.Put(4, "d", 10);  // evicts 1
  EXPECT_FALSE(c.Contains(1));
  EXPECT_TRUE(c.Contains(2));
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(LruCache, GetPromotes) {
  Cache c(30);
  c.Put(1, "a", 10);
  c.Put(2, "b", 10);
  c.Put(3, "c", 10);
  c.Get(1);           // 1 becomes MRU; 2 is now LRU
  c.Put(4, "d", 10);  // evicts 2
  EXPECT_TRUE(c.Contains(1));
  EXPECT_FALSE(c.Contains(2));
}

TEST(LruCache, PeekDoesNotPromoteOrCount) {
  Cache c(20);
  c.Put(1, "a", 10);
  c.Put(2, "b", 10);
  EXPECT_NE(c.Peek(1), nullptr);
  EXPECT_EQ(c.hits(), 0u);
  c.Put(3, "c", 10);  // evicts 1 despite the Peek
  EXPECT_FALSE(c.Contains(1));
}

TEST(LruCache, OverwriteUpdatesBytes) {
  Cache c(100);
  c.Put(1, "a", 10);
  c.Put(1, "bigger", 40);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes_used(), 40u);
  EXPECT_EQ(*c.Get(1), "bigger");
}

TEST(LruCache, OversizedItemRejected) {
  Cache c(100);
  EXPECT_FALSE(c.Put(1, "x", 101));
  EXPECT_EQ(c.size(), 0u);
  // Exactly capacity fits.
  EXPECT_TRUE(c.Put(2, "y", 100));
}

TEST(LruCache, MultiEvictionForLargeInsert) {
  Cache c(100);
  for (uint64_t k = 0; k < 10; ++k) {
    c.Put(k, "v", 10);
  }
  c.Put(100, "big", 95);
  EXPECT_TRUE(c.Contains(100));
  EXPECT_LE(c.bytes_used(), 100u);
  EXPECT_GE(c.evictions(), 9u);
}

TEST(LruCache, EraseFreesSpace) {
  Cache c(20);
  c.Put(1, "a", 10);
  EXPECT_TRUE(c.Erase(1));
  EXPECT_FALSE(c.Erase(1));
  EXPECT_EQ(c.bytes_used(), 0u);
  EXPECT_FALSE(c.Contains(1));
}

TEST(LruCache, ClearResetsContentsButNotStats) {
  Cache c(100);
  c.Put(1, "a", 10);
  c.Get(1);
  c.Clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.bytes_used(), 0u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(LruCache, ShrinkCapacityEvicts) {
  Cache c(100);
  for (uint64_t k = 0; k < 10; ++k) {
    c.Put(k, "v", 10);
  }
  c.SetCapacity(35);
  EXPECT_LE(c.bytes_used(), 35u);
  EXPECT_EQ(c.size(), 3u);
  // The survivors are the most recently used.
  EXPECT_TRUE(c.Contains(9));
  EXPECT_TRUE(c.Contains(8));
  EXPECT_TRUE(c.Contains(7));
}

TEST(LruCache, EvictionCallbackSeesVictims) {
  Cache c(20);
  std::vector<uint64_t> evicted;
  c.SetEvictionCallback([&](const Cache::Entry& e) { evicted.push_back(e.key); });
  c.Put(1, "a", 10);
  c.Put(2, "b", 10);
  c.Put(3, "c", 10);
  EXPECT_EQ(evicted, (std::vector<uint64_t>{1}));
}

TEST(LruCache, ForEachMruToLruOrder) {
  Cache c(100);
  c.Put(1, "a", 10);
  c.Put(2, "b", 10);
  c.Put(3, "c", 10);
  c.Get(1);
  std::vector<uint64_t> order;
  c.ForEachMruToLru([&](const Cache::Entry& e) { order.push_back(e.key); });
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 3, 2}));
}

TEST(LruCache, HitMissCounters) {
  Cache c(100);
  c.Put(1, "a", 10);
  c.Get(1);
  c.Get(1);
  c.Get(2);
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(LruCache, ZeroByteItemsAllowed) {
  Cache c(10);
  EXPECT_TRUE(c.Put(1, "meta", 0));
  EXPECT_TRUE(c.Contains(1));
  EXPECT_EQ(c.bytes_used(), 0u);
}

/// Bucket count the cache sizes its table to for `items` (load <= 3/4).
size_t BucketsFor(size_t items) {
  size_t b = 16;
  while (b * 3 < items * 4) {
    b <<= 1;
  }
  return b;
}

/// Index bytes of an arena of `slots` slots and its matching table.
size_t IndexBytes(size_t slots) {
  return slots * Cache::kSlotBytes + BucketsFor(slots) * sizeof(uint32_t);
}

TEST(LruCache, IndexBytesFallAfterSmallToLargeChurn) {
  // Fill with many small items, then churn large ones: the live count falls
  // 32x, and the arena and the buckets must follow it down.
  constexpr uint64_t kSmall = 16'384;
  Cache c(kSmall * 10);
  for (uint64_t k = 0; k < kSmall; ++k) {
    c.Put(k, "", 10);
  }
  const size_t full = c.index_bytes();
  EXPECT_GE(full, IndexBytes(kSmall));
  size_t shrinks = 0;
  for (uint64_t k = kSmall; k < kSmall + 5000; ++k) {
    const size_t before = c.index_bytes();
    c.Put(k, "", 320);
    if (c.index_bytes() < before) {
      ++shrinks;
      // Right after a shrink the arena holds at most twice the live count.
      EXPECT_LE(c.index_bytes(), IndexBytes(2 * c.size())) << "put " << k;
    }
  }
  EXPECT_EQ(c.size(), 512u);
  EXPECT_GE(shrinks, 3u);
  // Between shrinks the arena stays under 4x live.
  EXPECT_LE(c.index_bytes(), IndexBytes(4 * c.size()));
  EXPECT_LT(c.index_bytes(), full / 4);
  EXPECT_EQ(*c.Get(kSmall + 4999), "");
}

TEST(LruCache, ReserveIsTheShrinkFloor) {
  Cache c(1 << 20);
  c.Reserve(1000);
  for (uint64_t k = 0; k < 4000; ++k) {
    c.Put(k, "", 10);
  }
  const size_t full = c.index_bytes();
  for (uint64_t k = 0; k < 4000; ++k) {
    ASSERT_TRUE(c.Erase(k));
  }
  EXPECT_EQ(c.size(), 0u);
  EXPECT_LT(c.index_bytes(), full);  // it did shrink...
  EXPECT_GE(c.index_bytes(), IndexBytes(1000));  // ...but not below Reserve
  // A smaller later reservation does not lower the floor.
  c.Reserve(10);
  for (uint64_t k = 0; k < 2000; ++k) {
    c.Put(k, "", 10);
  }
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(c.Erase(k));
  }
  EXPECT_GE(c.index_bytes(), IndexBytes(1000));
}

TEST(LruCache, IndexBytesFallOneSegmentAtATime) {
  // Erasing the newest entry each time empties the arena from its tail: every
  // time the live count reaches a segment boundary with two empty segments
  // behind it, exactly one segment is freed. No live slot ever moves, and
  // nothing goes below the reservation.
  constexpr size_t kSeg = Cache::kSegmentSlots;
  constexpr size_t kSegBytes = kSeg * Cache::kSlotBytes;
  constexpr uint64_t kItems = 8 * kSeg;
  Cache c(1 << 30);
  c.Reserve(2 * kSeg);
  const size_t reserved = c.index_bytes();
  for (uint64_t k = 0; k < kItems; ++k) {
    c.Put(k, "v", 10);
  }
  // Slots 0 and kSeg (the first of the second segment) hold keys 0 and kSeg.
  const std::string* first = c.Peek(0);
  const std::string* second_segment = c.Peek(kSeg);
  size_t before = c.index_bytes();
  size_t segment_drops = 0;
  for (uint64_t k = kItems - 1; k > 0; --k) {
    ASSERT_TRUE(c.Erase(k));
    const size_t now = c.index_bytes();
    ASSERT_LE(now, before) << "erase " << k;
    ASSERT_GE(now, reserved) << "erase " << k;
    if (c.size() % kSeg == 0 && c.size() <= kItems - 2 * kSeg &&
        c.size() >= kSeg) {
      EXPECT_EQ(before - now, kSegBytes) << "at " << c.size() << " live";
      ++segment_drops;
    } else if (now != before) {
      // Otherwise only the buckets may rehash down.
      EXPECT_NE(before - now, kSegBytes) << "at " << c.size() << " live";
    }
    ASSERT_EQ(c.Peek(0), first);
    if (k > kSeg) {
      ASSERT_EQ(c.Peek(kSeg), second_segment);
    }
    before = now;
  }
  EXPECT_EQ(segment_drops, 6u);
  ASSERT_TRUE(c.Erase(0));
  EXPECT_EQ(c.size(), 0u);
  EXPECT_GE(c.index_bytes(), reserved);
}

std::vector<uint64_t> MruToLru(const Cache& c) {
  std::vector<uint64_t> order;
  c.ForEachMruToLru([&](const Cache::Entry& e) { order.push_back(e.key); });
  return order;
}

/// The list matches `want`, and every key still maps to its own value.
void ExpectConsistent(const Cache& c, const std::vector<uint64_t>& want) {
  EXPECT_EQ(MruToLru(c), want);
  EXPECT_EQ(c.size(), want.size());
  for (const uint64_t k : want) {
    const std::string* v = c.Peek(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, std::to_string(k));
  }
}

TEST(LruCache, ErasingLastSlotHeadAndTailKeepsListConsistent) {
  Cache c(1000);
  for (uint64_t k = 1; k <= 6; ++k) {
    c.Put(k, std::to_string(k), 10);  // arena slots 0..5 hold keys 1..6
  }
  c.Get(3);
  ExpectConsistent(c, {3, 6, 5, 4, 2, 1});
  EXPECT_TRUE(c.Erase(6));  // the last slot itself
  ExpectConsistent(c, {3, 5, 4, 2, 1});
  EXPECT_TRUE(c.Erase(1));  // tail, in slot 0: the last slot (5) moves in
  ExpectConsistent(c, {3, 5, 4, 2});
  EXPECT_TRUE(c.Erase(3));  // head: the last slot (4) moves in
  ExpectConsistent(c, {5, 4, 2});
  c.Put(7, "7", 10);  // the last slot and the head at once
  EXPECT_TRUE(c.Erase(7));
  ExpectConsistent(c, {5, 4, 2});
  EXPECT_TRUE(c.Erase(5));  // head: the slot that moves in becomes head
  ExpectConsistent(c, {4, 2});
  c.Put(8, "8", 995);  // evicts the tail, then the rest
  ExpectConsistent(c, {8});
  EXPECT_EQ(c.evictions(), 2u);
  EXPECT_TRUE(c.Erase(8));
  ExpectConsistent(c, {});
  c.Put(9, "9", 10);
  ExpectConsistent(c, {9});
  // The last slot is the tail: it moves into the hole and stays the tail.
  c.Put(10, "10", 10);
  c.Put(11, "11", 10);  // slots 0, 1, 2 hold 9, 10, 11
  c.Get(9);
  c.Get(10);
  ExpectConsistent(c, {10, 9, 11});
  EXPECT_TRUE(c.Erase(9));
  ExpectConsistent(c, {10, 11});
  c.Put(12, "12", 985);  // evicts the tail, 11
  ExpectConsistent(c, {12, 10});
}

// ---- Key-in-value mode -----------------------------------------------------

/// A value that carries its own key, as the server's items do.
struct Tagged {
  uint64_t key = 0;
  uint32_t payload = 0;
  bool operator==(const Tagged&) const = default;
};

struct TaggedKey {
  uint64_t operator()(const Tagged& t) const { return t.key; }
};

using KeyInValue =
    LruCache<uint64_t, Tagged, std::hash<uint64_t>, void, TaggedKey>;

struct Victim {
  uint64_t key;
  size_t bytes;
  bool operator==(const Victim&) const = default;
};

TEST(LruCacheKeyInValue, SeededMixMatchesReference) {
  // Puts (a small key space, so about a fifth overwrite a live key with a new
  // payload and size), gets, erases and peeks; every result, victim and
  // counter must match the reference after every op.
  ReferenceLruCache<uint64_t, Tagged> ref(64 * 1024);
  KeyInValue flat(64 * 1024);
  std::vector<Victim> ref_victims, flat_victims;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_victims.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback([&](const KeyInValue::Entry& e) {
    flat_victims.push_back({e.key(), e.bytes});
  });
  Rng rng(0x6b1f);
  size_t overwrites = 0;
  for (uint32_t i = 0; i < 100'000; ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const uint64_t key = rng.NextBelow(300);
    const double roll = rng.NextDouble();
    if (roll < 0.45) {
      overwrites += ref.Contains(key) ? 1 : 0;
      const size_t bytes = 1 + rng.NextBelow(2048);
      ASSERT_EQ(ref.Put(key, Tagged{key, i}, bytes),
                flat.Put(key, Tagged{key, i}, bytes));
    } else if (roll < 0.80) {
      const auto a = ref.Get(key);
      const auto b = flat.Get(key);
      ASSERT_EQ(a, b);
    } else if (roll < 0.92) {
      ASSERT_EQ(ref.Erase(key), flat.Erase(key));
    } else {
      const Tagged* a = ref.Peek(key);
      const Tagged* b = flat.Peek(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    }
    ASSERT_EQ(ref.size(), flat.size());
    ASSERT_EQ(ref.bytes_used(), flat.bytes_used());
    ASSERT_EQ(ref.hits(), flat.hits());
    ASSERT_EQ(ref.misses(), flat.misses());
    ASSERT_EQ(ref.evictions(), flat.evictions());
    ASSERT_EQ(ref_victims.size(), flat_victims.size());
  }
  EXPECT_EQ(ref_victims, flat_victims);
  std::vector<uint64_t> ref_order, flat_order;
  ref.ForEachMruToLru([&](const auto& e) { ref_order.push_back(e.key); });
  flat.ForEachMruToLru(
      [&](const KeyInValue::Entry& e) { flat_order.push_back(e.key()); });
  EXPECT_EQ(ref_order, flat_order);
  EXPECT_GT(ref_victims.size(), 5000u) << "the mix never evicted; weak test";
  EXPECT_GT(overwrites, 5'000u) << "the mix rarely overwrote; weak test";
}

/// A view key that lives in its own heap-held value, the server store's
/// shape: the slot is the 8-byte value plus four uint32_t.
struct OwnedKey {
  std::string_view operator()(const std::unique_ptr<std::string>& v) const {
    return *v;
  }
};

using ViewCache = LruCache<std::string_view, std::unique_ptr<std::string>,
                           std::hash<std::string_view>, void, OwnedKey>;
static_assert(ViewCache::kSlotBytes == 24);

TEST(LruCacheKeyInValue, OverwriteKeyFollowsTheNewValue) {
  ViewCache c(1000);
  auto first = std::make_unique<std::string>("alpha");
  const std::string_view first_key = *first;
  ASSERT_TRUE(c.Put(first_key, std::move(first), 10));
  // The overwrite frees the string the stored key pointed into; the slot's
  // key must now read the new value's bytes.
  auto second = std::make_unique<std::string>("alpha");
  const std::string* second_ptr = second.get();
  ASSERT_TRUE(c.Put(*second_ptr, std::move(second), 30));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.bytes_used(), 30u);
  const std::string probe = "alpha";
  const auto* hit = c.Peek(probe);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->get(), second_ptr);
  c.ForEachMruToLru([&](const ViewCache::Entry& e) {
    EXPECT_EQ(e.key().data(), second_ptr->data());
  });
  EXPECT_TRUE(c.Erase(probe));
  EXPECT_EQ(c.size(), 0u);
}

// ---- The 32-bit charge -----------------------------------------------------

constexpr size_t kU32Max = UINT32_MAX;

template <typename C, typename MakeValue>
void ExpectChargeAboveUint32MaxRejected(MakeValue make) {
  C c(4 * kU32Max);  // 16 GiB of capacity: only the charge's width limits
  EXPECT_FALSE(c.Put(1, make(1), kU32Max + 1));
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.bytes_used(), 0u);
  EXPECT_FALSE(c.Contains(1));
  EXPECT_EQ(c.evictions(), 0u);
  // The widest charge fits, and bytes_used() sums charges past 32 bits.
  EXPECT_TRUE(c.Put(1, make(1), kU32Max));
  EXPECT_TRUE(c.Put(2, make(2), kU32Max));
  EXPECT_EQ(c.bytes_used(), 2 * kU32Max);
  // An oversized overwrite leaves the stored entry as it was.
  EXPECT_FALSE(c.Put(1, make(1), kU32Max + 1));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.bytes_used(), 2 * kU32Max);
  EXPECT_TRUE(c.Contains(1));
}

TEST(LruCache, ChargeAboveUint32MaxRejected) {
  ExpectChargeAboveUint32MaxRejected<Cache>(
      [](uint64_t k) { return std::to_string(k); });
}

TEST(LruCacheKeyInValue, ChargeAboveUint32MaxRejected) {
  ExpectChargeAboveUint32MaxRejected<KeyInValue>(
      [](uint64_t k) { return Tagged{k, 0}; });
}

}  // namespace
}  // namespace spotcache
