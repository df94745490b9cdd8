// ItemStore against a reference model, pin lifetimes, and real heap per item.
//
// The model is the plainest possible statement of the store's contract: a
// map of items plus a recency list, charged key + value + 64 bytes per item,
// with memcached's expiry and flush_all rules. Both consume the same seeded
// op stream (set/add/replace/get/delete/touch/flush_all, a clock that
// advances, a capacity small enough to evict constantly); after every op
// the results, the hit's flags/cas/bytes and every counter must agree.
//
// The pin tests drive ServerCore: a `get` reply that is still being
// assembled must keep its value bytes even when later requests in the same
// batch evict, overwrite and delete the item, or when a later key of the
// same multi-key get reaps an expired item and so moves the arena's last
// slot (or shrinks the arena) under the earlier keys' pins.
//
// The limit test pins the header's length bits to the protocol's limits. The
// deadline tests pin the 32-bit times at their edges: exptime -1 and 0,
// relative and absolute deadlines, absolute ones at and past UINT32_MAX
// (saturated to the last second before the horizon), touch with each, and a
// delayed flush_all whose point lies past the horizon.
//
// The memory tests measure what an item really costs on the heap (mallinfo2
// delta / items) against what the store charges for it, and the chunk the
// benchmark's item shape lands in.

#include <malloc.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/net/item_store.h"
#include "src/net/protocol.h"
#include "src/net/response.h"
#include "src/net/server_core.h"
#include "src/util/rng.h"

namespace spotcache::net {
namespace {

constexpr int64_t kT0 = 2'000'000'000;

/// What a get observed: nullopt on a miss.
struct Hit {
  uint32_t flags;
  uint64_t cas;
  std::string value;
  bool operator==(const Hit&) const = default;
};

std::optional<Hit> Observe(const Item* item) {
  if (item == nullptr) {
    return std::nullopt;
  }
  return Hit{item->data->flags, item->data->cas,
             std::string(item->data->value())};
}

/// Reference model: map + recency list, no cleverness.
class ModelStore {
 public:
  explicit ModelStore(size_t capacity) : capacity_(capacity) {}

  bool Store(char mode, const std::string& key, uint32_t flags,
             int64_t exptime, const std::string& data, int64_t now) {
    auto it = items_.find(key);
    const bool live = it != items_.end() && Live(it->second, now);
    if ((mode == 'a' && live) || (mode == 'r' && !live)) {
      return false;
    }
    const size_t cost = key.size() + data.size() + 64;
    if (cost > capacity_) {
      return false;
    }
    if (it != items_.end()) {
      Remove(key);
    }
    while (used_ + cost > capacity_) {
      const std::string victim = recency_.back();
      if (Live(items_.at(victim), now)) {
        ++evictions_;
      } else {
        ++reaped_;
      }
      Remove(victim);
    }
    int64_t expires = 0;
    if (exptime < 0) {
      expires = -1;
    } else if (exptime > 0) {
      expires = exptime <= kRelativeExpiryCutoff ? now + exptime : exptime;
    }
    recency_.push_front(key);
    items_[key] = Entry{Hit{flags, next_cas_++, data}, expires, now};
    used_ += cost;
    return true;
  }

  std::optional<Hit> Get(const std::string& key, int64_t now) {
    auto it = items_.find(key);
    if (it == items_.end()) {
      return std::nullopt;
    }
    if (!Live(it->second, now)) {
      ++reaped_;
      Remove(key);
      return std::nullopt;
    }
    recency_.remove(key);
    recency_.push_front(key);
    return it->second.hit;
  }

  bool Delete(const std::string& key, int64_t now) {
    auto it = items_.find(key);
    if (it == items_.end()) {
      return false;
    }
    const bool live = Live(it->second, now);
    Remove(key);
    return live;
  }

  bool Touch(const std::string& key, int64_t exptime, int64_t now) {
    auto it = items_.find(key);
    if (it == items_.end() || !Live(it->second, now)) {
      return false;
    }
    it->second.expires =
        exptime == 0  ? 0
        : exptime < 0 ? -1
                      : (exptime <= kRelativeExpiryCutoff ? now + exptime
                                                          : exptime);
    return true;
  }

  /// An immediate flush (or a delayed one whose point has passed) hides
  /// everything stored before it for good; a later flush_all only adds a
  /// pending point, which replaces an earlier still-pending one.
  void FlushAll(int64_t now, int64_t delay) {
    if (pending_ >= 0 && now >= pending_) {
      applied_ = std::max(applied_, pending_);
    }
    pending_ = -1;
    if (delay == 0) {
      applied_ = std::max(applied_, now);
    } else {
      pending_ = now + delay;
    }
  }

  size_t count() const { return items_.size(); }
  size_t used() const { return used_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t reaped() const { return reaped_; }

 private:
  struct Entry {
    Hit hit;
    int64_t expires;
    int64_t stored_at;
  };

  bool Live(const Entry& e, int64_t now) const {
    if (e.expires < 0 || (e.expires > 0 && e.expires <= now)) {
      return false;
    }
    if (e.stored_at < applied_) {
      return false;
    }
    return !(pending_ >= 0 && now >= pending_ && e.stored_at < pending_);
  }

  void Remove(const std::string& key) {
    const Entry& e = items_.at(key);
    used_ -= key.size() + e.hit.value.size() + 64;
    items_.erase(key);
    recency_.remove(key);
  }

  size_t capacity_;
  size_t used_ = 0;
  uint64_t next_cas_ = 1;
  uint64_t evictions_ = 0;
  uint64_t reaped_ = 0;
  int64_t applied_ = -1;
  int64_t pending_ = -1;
  std::map<std::string, Entry> items_;
  std::list<std::string> recency_;  // front = MRU
};

int64_t RandomExptime(Rng& rng, int64_t now) {
  const uint64_t roll = rng.NextBelow(10);
  if (roll < 5) {
    return 0;
  }
  if (roll < 6) {
    return -1;
  }
  if (roll < 9) {
    return static_cast<int64_t>(1 + rng.NextBelow(6));  // relative
  }
  return now + static_cast<int64_t>(rng.NextBelow(6));  // absolute
}

void DriveAgainstModel(uint64_t seed, size_t ops, size_t capacity,
                       uint64_t key_space) {
  ItemStore store(capacity);
  ModelStore model(capacity);
  Rng rng(seed);
  int64_t now = kT0;
  for (size_t i = 0; i < ops; ++i) {
    if (rng.NextBelow(8) == 0) {
      now += static_cast<int64_t>(rng.NextBelow(3));
    }
    const std::string key = "k" + std::to_string(rng.NextBelow(key_space));
    const double roll = rng.NextDouble();
    SCOPED_TRACE("op " + std::to_string(i) + " key " + key + " now " +
                 std::to_string(now - kT0));
    if (roll < 0.40) {
      const char mode = "ssssar"[rng.NextBelow(6)];
      const uint32_t flags = static_cast<uint32_t>(rng.NextBelow(1000));
      const int64_t exptime = RandomExptime(rng, now);
      const std::string data(rng.NextBelow(300),
                             static_cast<char>('a' + i % 26));
      const ItemStore::Mode store_mode = mode == 's'   ? ItemStore::Mode::kSet
                                         : mode == 'a' ? ItemStore::Mode::kAdd
                                                       : ItemStore::Mode::kReplace;
      ASSERT_EQ(store.Store(store_mode, key, flags, exptime, data, now),
                model.Store(mode, key, flags, exptime, data, now));
    } else if (roll < 0.80) {
      ASSERT_EQ(Observe(store.Get(key, now)), model.Get(key, now));
    } else if (roll < 0.90) {
      ASSERT_EQ(store.Delete(key, now), model.Delete(key, now));
    } else if (roll < 0.99) {
      const int64_t exptime = RandomExptime(rng, now);
      ASSERT_EQ(store.Touch(key, exptime, now),
                model.Touch(key, exptime, now));
    } else {
      const int64_t delay =
          rng.NextBelow(2) == 0 ? 0 : static_cast<int64_t>(rng.NextBelow(5));
      store.FlushAll(now, delay);
      model.FlushAll(now, delay);
    }
    ASSERT_EQ(store.item_count(), model.count());
    ASSERT_EQ(store.bytes_used(), model.used());
    ASSERT_EQ(store.evictions(), model.evictions());
    ASSERT_EQ(store.expired_reaped(), model.reaped());
  }
}

TEST(ItemStoreModel, SmallStoreEvictsConstantly) {
  DriveAgainstModel(/*seed=*/1, /*ops=*/100'000, /*capacity=*/8 * 1024,
                    /*key_space=*/200);
}

TEST(ItemStoreModel, RoomyStoreExercisesExpiryAndFlush) {
  DriveAgainstModel(/*seed=*/2, /*ops=*/50'000, /*capacity=*/64 * 1024,
                    /*key_space=*/300);
}

TEST(ItemStoreModel, DelayedFlushKeepsAnAppliedFlushInForce) {
  ItemStore store(1 << 20);
  store.Set("old", 0, 0, "v", kT0 + 50);
  store.FlushAll(kT0 + 100, 0);
  store.FlushAll(kT0 + 200, 60);
  EXPECT_EQ(store.Get("old", kT0 + 210), nullptr);
  store.Set("mid", 0, 0, "v", kT0 + 220);
  EXPECT_NE(store.Get("mid", kT0 + 259), nullptr);
  EXPECT_EQ(store.Get("mid", kT0 + 260), nullptr);
}

/// Feeds `in` to a parser and core, appending every reply to `out`.
void HandleAll(ServerCore* core, std::string_view in, int64_t now,
               ResponseAssembler* out) {
  RequestParser parser;
  parser.Feed(in);
  while (parser.Next() == ParseStatus::kRequest) {
    core->Handle(parser.request(), now, out);
  }
  ASSERT_EQ(parser.buffered(), 0u);
}

TEST(ItemStorePins, GetReplySurvivesEvictOverwriteAndDelete) {
  ServerCoreConfig config;
  config.capacity_bytes = 4096;
  const std::string big(4000, 'b');  // with k, more than the capacity
  for (const std::string& after :
       {"set filler 0 0 4000\r\n" + big + "\r\n",
        std::string("set k 0 0 3\r\nnew\r\n"), std::string("delete k\r\n")}) {
    ServerCore core(config);
    ResponseAssembler out;
    HandleAll(&core, "set k 5 0 3\r\nold\r\n", kT0, &out);
    out.Clear();
    // One batch: the get pins k's bytes, then the next request evicts,
    // overwrites or deletes k before the batch is flattened.
    HandleAll(&core, "get k\r\n" + after, kT0, &out);
    EXPECT_TRUE(out.Flatten().starts_with("VALUE k 5 3\r\nold\r\nEND\r\n"))
        << "after " << after.substr(0, 12);
  }
  // All three in one batch against one store.
  ServerCore core(config);
  ResponseAssembler out;
  HandleAll(&core, "set k 5 0 3\r\nold\r\n", kT0, &out);
  out.Clear();
  HandleAll(&core,
            "get k\r\nset k 0 0 3\r\nnew\r\nget k\r\nset filler 0 0 4000\r\n" +
                big + "\r\ndelete k\r\n",
            kT0, &out);
  EXPECT_EQ(out.Flatten(),
            "VALUE k 5 3\r\nold\r\nEND\r\nSTORED\r\n"
            "VALUE k 0 3\r\nnew\r\nEND\r\nSTORED\r\nNOT_FOUND\r\n");
  EXPECT_EQ(core.store().evictions(), 1u);
}

TEST(ItemStorePins, MultiGetReapsAnExpiredKeyWhileTheLastSlotMoves) {
  ServerCoreConfig config;
  config.capacity_bytes = 1 << 20;
  ServerCore core(config);
  ResponseAssembler out;
  // Arena slots 0, 1, 2 hold a, b, c: c sits in the last slot. Only b
  // expires.
  HandleAll(&core,
            "set a 1 0 2\r\naa\r\nset b 2 10 2\r\nbb\r\n"
            "set c 3 0 2\r\ncc\r\n",
            kT0, &out);
  out.Clear();
  // Reaping b moves c into b's slot between a's pin and c's lookup.
  HandleAll(&core, "get a b c\r\n", kT0 + 20, &out);
  EXPECT_EQ(out.Flatten(),
            "VALUE a 1 2\r\naa\r\nVALUE c 3 2\r\ncc\r\nEND\r\n");
  EXPECT_EQ(core.store().expired_reaped(), 1u);
  EXPECT_EQ(core.store().item_count(), 2u);
  out.Clear();
  HandleAll(&core, "get c b a\r\n", kT0 + 20, &out);
  EXPECT_EQ(out.Flatten(),
            "VALUE c 3 2\r\ncc\r\nVALUE a 1 2\r\naa\r\nEND\r\n");

  // 64 items, 56 of them expired: one get of all 64 reaps enough to shrink
  // the arena twice while the earlier live keys' values are pinned.
  ServerCore many(config);
  std::string sets;
  std::string get = "get";
  std::string want;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "k" + std::to_string(i);
    const bool live = i % 8 == 7;
    const std::string value = "v" + std::to_string(i);
    sets += "set " + key + " 0 " + (live ? "0" : "10") + " " +
            std::to_string(value.size()) + "\r\n" + value + "\r\n";
    get += " " + key;
    if (live) {
      want += "VALUE " + key + " 0 " + std::to_string(value.size()) + "\r\n" +
              value + "\r\n";
    }
  }
  HandleAll(&many, sets, kT0, &out);
  out.Clear();
  const size_t index_before = many.store().index_bytes();
  HandleAll(&many, get + "\r\n", kT0 + 20, &out);
  EXPECT_EQ(out.Flatten(), want + "END\r\n");
  EXPECT_EQ(many.store().item_count(), 8u);
  EXPECT_LT(many.store().index_bytes(), index_before);
}

// Heap bytes per stored item against the bytes the store charges for it.
// mallinfo2 reports glibc's own arena; sanitizer runtimes replace malloc, so
// the figure means nothing there and the test skips.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kRealMalloc = false;
#else
constexpr bool kRealMalloc = true;
#endif

double HeapPerChargedByte(size_t value_bytes) {
  constexpr size_t kCapacity = 16u << 20;
  const std::string value(value_bytes, 'v');
  const auto heap = [] {
    const struct mallinfo2 mi = ::mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  const size_t before = heap();
  ItemStore store(kCapacity);
  char key[32];
  for (int i = 0; store.evictions() == 0; ++i) {
    std::snprintf(key, sizeof(key), "key:%08d", i);  // 12 bytes
    store.Set(key, 0, 0, value, kT0);
  }
  const double per_item = static_cast<double>(heap() - before) /
                          static_cast<double>(store.item_count());
  const double charged = 12.0 + static_cast<double>(value_bytes) + 64.0;
  std::printf("value %zu B: %zu items, %.1f heap B/item, charged %.0f\n",
              value_bytes, store.item_count(), per_item, charged);
  return per_item / charged;
}

TEST(ItemStoreMemory, HeapPerItemTracksTheCharge) {
  if (!kRealMalloc) {
    GTEST_SKIP() << "sanitizer build: mallinfo2 does not see the allocator";
  }
  EXPECT_LE(HeapPerChargedByte(100), 1.15);
  EXPECT_LE(HeapPerChargedByte(4096), 1.01);
}

// The benchmark's item: an 8-byte key (`lg:NNNNN`) and a 100-byte value.
// Header + key + value is 136 B, which glibc serves from a 144-byte chunk
// (136 usable bytes); a 40-byte header needed the 160-byte chunk.
TEST(ItemStoreMemory, BenchmarkItemTakesA144ByteChunk) {
  if (!kRealMalloc) {
    GTEST_SKIP() << "sanitizer build: the allocator pads blocks differently";
  }
  ItemStore store(1 << 20);
  ASSERT_TRUE(store.Set("lg:00042", 0, 0, std::string(100, 'v'), kT0));
  const Item* item = store.Get("lg:00042", kT0);
  ASSERT_NE(item, nullptr);
  ItemBlock* block = &*item->data;
  EXPECT_EQ(block->key(), "lg:00042");
  EXPECT_EQ(block->value().size(), 100u);
  EXPECT_LE(::malloc_usable_size(block), 136u);
}

// The protocol's limits fill the header's length bits exactly: the longest
// key and the largest value round-trip, one byte more is refused.
TEST(ItemStoreLimits, RefusesWhatTheHeaderCannotHold) {
  ItemStore store(4u << 20);
  const std::string key(kMaxKeyBytes, 'k');
  const std::string value(kMaxValueBytes, 'v');
  ASSERT_TRUE(store.Set(key, 7, 0, value, kT0));
  const Item* item = store.Get(key, kT0);
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->data->key(), key);
  EXPECT_EQ(item->data->value(), value);
  EXPECT_EQ(item->data->flags, 7u);
  EXPECT_FALSE(store.Set(key + "k", 0, 0, "v", kT0));
  EXPECT_FALSE(store.Set("k", 0, 0, value + "v", kT0));
  EXPECT_EQ(store.item_count(), 1u);
}

/// The deadline a live item holds, or nullopt when `key` is not live.
std::optional<uint32_t> DeadlineOf(ItemStore& store, std::string_view key,
                                   int64_t now) {
  const Item* item = store.Get(key, now);
  if (item == nullptr) {
    return std::nullopt;
  }
  return item->data->expires_at;
}

constexpr int64_t kU32Max = UINT32_MAX;
constexpr uint32_t kLatest = ItemBlock::kLatestDeadline;

TEST(ItemStoreDeadlines, ResolveExptimeSentinelsAndSaturation) {
  EXPECT_EQ(ResolveExptime(0, kT0), ItemBlock::kNever);
  EXPECT_EQ(ResolveExptime(-1, kT0), ItemBlock::kDead);
  EXPECT_EQ(ResolveExptime(INT64_MIN, kT0), ItemBlock::kDead);
  EXPECT_EQ(ResolveExptime(1, kT0), kT0 + 1);
  EXPECT_EQ(ResolveExptime(kRelativeExpiryCutoff, kT0),
            kT0 + kRelativeExpiryCutoff);
  EXPECT_EQ(ResolveExptime(kRelativeExpiryCutoff + 1, kT0),
            kRelativeExpiryCutoff + 1);  // absolute, long past
  EXPECT_EQ(ResolveExptime(kU32Max - 1, kT0), kLatest);
  EXPECT_EQ(ResolveExptime(kU32Max, kT0), kLatest);
  EXPECT_EQ(ResolveExptime(kU32Max + 1, kT0), kLatest);
  EXPECT_EQ(ResolveExptime(INT64_MAX, kT0), kLatest);
  // A relative deadline that crosses the horizon saturates too.
  EXPECT_EQ(ResolveExptime(10, kU32Max - 5), kLatest);
}

TEST(ItemStoreDeadlines, StoreHonorsEachExptimeForm) {
  ItemStore store(1 << 20);
  ASSERT_TRUE(store.Set("dead", 0, -1, "v", kT0));
  ASSERT_TRUE(store.Set("never", 0, 0, "v", kT0));
  ASSERT_TRUE(store.Set("relative", 0, 10, "v", kT0));
  ASSERT_TRUE(store.Set("absolute", 0, kT0 + 20, "v", kT0));
  ASSERT_TRUE(store.Set("at_max", 0, kU32Max, "v", kT0));
  ASSERT_TRUE(store.Set("past_max", 0, kU32Max + 1000, "v", kT0));

  EXPECT_EQ(DeadlineOf(store, "dead", kT0), std::nullopt);
  EXPECT_EQ(store.expired_reaped(), 1u);
  EXPECT_EQ(DeadlineOf(store, "relative", kT0 + 9), kT0 + 10);
  EXPECT_EQ(DeadlineOf(store, "relative", kT0 + 10), std::nullopt);
  EXPECT_EQ(DeadlineOf(store, "absolute", kT0 + 19), kT0 + 20);
  EXPECT_EQ(DeadlineOf(store, "absolute", kT0 + 20), std::nullopt);
  // Deadlines at and past UINT32_MAX hold until the horizon's last second.
  for (const char* key : {"at_max", "past_max"}) {
    EXPECT_EQ(DeadlineOf(store, key, kLatest - 1), kLatest) << key;
    EXPECT_EQ(DeadlineOf(store, key, kLatest), std::nullopt) << key;
  }
  // "Never" outlives the horizon.
  EXPECT_EQ(DeadlineOf(store, "never", kU32Max + 1000), ItemBlock::kNever);
}

TEST(ItemStoreDeadlines, TouchHonorsEachExptimeForm) {
  ItemStore store(1 << 20);
  const auto touched = [&store](int64_t exptime) {
    EXPECT_TRUE(store.Set("k", 0, 5, "v", kT0));
    EXPECT_TRUE(store.Touch("k", exptime, kT0 + 1));
    return DeadlineOf(store, "k", kT0 + 2);
  };
  EXPECT_EQ(touched(-1), std::nullopt);
  EXPECT_EQ(touched(0), ItemBlock::kNever);
  EXPECT_EQ(touched(10), kT0 + 11);  // relative to the touch
  EXPECT_EQ(touched(kT0 + 100), kT0 + 100);
  EXPECT_EQ(touched(kU32Max), kLatest);
  EXPECT_EQ(touched(kU32Max + 1000), kLatest);

  // A touch to "never" keeps the item past the horizon; touching an item
  // whose deadline passed fails.
  EXPECT_TRUE(store.Set("k", 0, 5, "v", kT0));
  EXPECT_TRUE(store.Touch("k", 0, kT0 + 1));
  EXPECT_EQ(DeadlineOf(store, "k", kU32Max + 1000), ItemBlock::kNever);
  EXPECT_TRUE(store.Set("k", 0, 5, "v", kT0));
  EXPECT_FALSE(store.Touch("k", 0, kT0 + 5));
  EXPECT_FALSE(store.Touch("k", 0, kT0 + 6));
}

// A delayed flush_all whose point lies past the horizon saturates to it: it
// hides what was stored before it once the clock reaches UINT32_MAX, and
// what is stored from then on stays visible.
TEST(ItemStoreDeadlines, DelayedFlushPastTheHorizonSaturates) {
  ItemStore store(1 << 20);
  ASSERT_TRUE(store.Set("old", 0, 0, "v", kT0));
  store.FlushAll(kT0, kU32Max);  // point kT0 + UINT32_MAX, past the horizon
  EXPECT_NE(store.Get("old", kT0 + 1), nullptr);
  EXPECT_NE(store.Get("old", kU32Max - 1), nullptr);
  EXPECT_EQ(store.Get("old", kU32Max), nullptr);
  ASSERT_TRUE(store.Set("new", 0, 0, "v", kU32Max + 10));
  EXPECT_NE(store.Get("new", kU32Max + 20), nullptr);
  EXPECT_NE(store.Get("new", kT0 + kU32Max + 1), nullptr);
}

}  // namespace
}  // namespace spotcache::net
