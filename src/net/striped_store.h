// StripedStore: the one item store every reactor of a server shares.
//
// The store is K ItemStores ("stripes"), each behind its own mutex. A key
// lives in stripe ShardOfKey(key, K), so any reactor can serve any key: it
// locks that key's stripe, runs the ItemStore call, and unlocks. A get hit
// copies the item's ItemRef while the lock is held; the pin is an atomic
// count, so the reactor may release it on its own thread after another
// reactor has overwritten, deleted or evicted the item.
//
// Each stripe runs its own LRU over its share of the capacity: the first
// `capacity % K` stripes get one byte more, so the stripes sum to exactly the
// configured capacity. With K = 1 the store is one ItemStore with one global
// LRU and its own cas counter, identical to a bare ItemStore; with K > 1 the
// stripes draw cas values from one shared sequence, so cas stays unique
// across stripes (and, for a sequential client, identical to K = 1).
//
// flush_all locks each stripe in turn. The totals (items, bytes, evictions,
// index heap) sum the stripes, each read under its lock.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/net/item_store.h"
#include "src/net/sharding.h"

namespace spotcache::net {

class StripedStore {
 public:
  /// Store-wide sums over every stripe.
  struct Totals {
    uint64_t items = 0;
    uint64_t bytes_used = 0;
    uint64_t capacity_bytes = 0;
    uint64_t evictions = 0;
    uint64_t expired_reaped = 0;
    uint64_t index_bytes = 0;
  };

  StripedStore(size_t capacity_bytes, uint32_t stripes);
  StripedStore(const StripedStore&) = delete;
  StripedStore& operator=(const StripedStore&) = delete;

  bool Store(ItemStore::Mode mode, std::string_view key, uint32_t flags,
             int64_t exptime, std::string_view data, int64_t now);
  bool Set(std::string_view key, uint32_t flags, int64_t exptime,
           std::string_view data, int64_t now) {
    return Store(ItemStore::Mode::kSet, key, flags, exptime, data, now);
  }
  /// The live item's block, pinned, or null on a miss.
  ItemRef Get(std::string_view key, int64_t now);
  bool Delete(std::string_view key, int64_t now);
  bool Touch(std::string_view key, int64_t exptime, int64_t now);
  void FlushAll(int64_t now, int64_t delay_s);

  uint32_t stripe_count() const {
    return static_cast<uint32_t>(stripes_.size());
  }
  Totals totals() const;
  size_t item_count() const { return totals().items; }
  uint64_t evictions() const { return totals().evictions; }
  uint64_t expired_reaped() const { return totals().expired_reaped; }
  size_t index_bytes() const { return totals().index_bytes; }

 private:
  // Cache-line aligned, so one stripe's lock traffic does not slow its
  // neighbors.
  struct alignas(64) Stripe {
    explicit Stripe(size_t capacity) : store(capacity) {}
    mutable std::mutex mu;
    ItemStore store;
  };

  /// Runs `fn(store)` on `key`'s stripe under its lock.
  template <typename Fn>
  auto WithStripe(std::string_view key, Fn&& fn) {
    Stripe& s = *stripes_[ShardOfKey(key, stripe_count())];
    std::lock_guard<std::mutex> lock(s.mu);
    return fn(s.store);
  }

  std::atomic<uint64_t> cas_{0};
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace spotcache::net
