// Cross-shard plumbing for the multi-core serving path.
//
// The sharded server runs N reactor threads, each owning a private epoll
// loop, a private ItemStore partition, and private telemetry. Keys are
// assigned to shards by the same splitmix64-finalized hash the telemetry and
// routing tiers already compute (HashString): ShardOfKey is a pure function
// of (key, shard_count), so the assignment is stable across restarts and
// identical in the server, the tests, and any external tooling.
//
// Connections, however, land on arbitrary shards (SO_REUSEPORT spreads them
// by 4-tuple), so a request handled by shard A may name keys owned by shard
// B. Those operations travel through a bounded SPSC mailbox per ordered
// shard pair: A fills a CrossShardOp, pushes a pointer into ring (A -> B),
// and B executes it against its own store on its own thread. The ring
// indices, the op's `done` flag and item pin counts are the only atomics;
// items cross threads as ItemRefs (a counted reference to the owner's item
// block, whose header carries the flags and cas), and the release/acquire
// pair on `done` publishes the reply fields. Shard-local operations — the
// common case the partition function is chosen for — never touch the
// exchange.
//
// Deadlock freedom: a shard waiting for a reply keeps servicing its own
// inbox (executing other shards' ops, which are purely store-local and never
// recurse into the exchange), so two shards waiting on each other both make
// progress. At shutdown every shard drains its inbox until all shards have
// left their loops (NotifyStopped/AllStopped), so a waiter is never stranded
// by a peer that exited first.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/item_store.h"
#include "src/routing/hash.h"

namespace spotcache::net {

/// Key -> owning shard. Splitmix64-finalized (HashString), modulo-mapped;
/// pure, so the assignment survives restarts and is testable in isolation.
inline uint32_t ShardOfKey(std::string_view key, uint32_t shard_count) {
  if (shard_count <= 1) {
    return 0;
  }
  return static_cast<uint32_t>(HashString(key) % shard_count);
}

/// Aggregatable counter snapshot of one shard's ServerCore + ItemStore,
/// filled by the owning thread (kSnapshot op) so `stats` sums are coherent.
struct CoreSnapshot {
  uint64_t curr_items = 0;
  uint64_t bytes_used = 0;
  uint64_t capacity_bytes = 0;
  uint64_t evictions = 0;
  uint64_t expired_reaped = 0;
  uint64_t cmd_get = 0;
  uint64_t cmd_set = 0;
  uint64_t cmd_touch = 0;
  uint64_t cmd_delete = 0;
  uint64_t cmd_flush = 0;
  uint64_t get_hits = 0;
  uint64_t get_misses = 0;
  uint64_t protocol_errors = 0;
  int64_t start_time = -1;
};

/// One cross-shard operation. Allocated by the requesting shard (stable
/// address until the batch ends), executed by the owning shard. Request
/// fields are published by the ring push (release on the ring tail); reply
/// fields are published by `done` (release store / acquire load).
struct CrossShardOp {
  enum class Kind : uint8_t {
    kGet,       // key -> found/rdata
    kStore,     // mode+key+flags+exptime+data -> stored
    kDelete,    // key -> found (deleted-live)
    kTouch,     // key+exptime -> found
    kFlushAll,  // now+delay broadcast
    kSnapshot,  // -> CoreSnapshot (coherent `stats` aggregation)
    kAdoptConn, // fd handoff (hash-dispatch accept fallback)
  };

  Kind kind = Kind::kGet;
  ItemStore::Mode mode = ItemStore::Mode::kSet;  // kStore
  std::string key;
  std::string data;
  uint32_t flags = 0;
  int64_t exptime = 0;
  int64_t delay_s = 0;
  int64_t now = 0;  // requester's expiry clock, so views stay consistent
  int fd = -1;      // kAdoptConn

  // Reply (owner-written, valid after `done` reads true).
  bool found = false;
  bool stored = false;
  ItemRef rdata;  // kGet hit: the item's block
  CoreSnapshot snapshot;

  std::atomic<bool> done{false};
};

/// Bounded single-producer single-consumer pointer ring. Producer is the
/// requesting shard, consumer the owning shard; each (from, to) pair gets
/// its own ring, which is what makes the SPSC contract hold.
class SpscOpRing {
 public:
  explicit SpscOpRing(size_t capacity) : slots_(capacity) {}

  bool Push(CrossShardOp* op) {
    const size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) == slots_.size()) {
      return false;  // full: caller services its own inbox and retries
    }
    slots_[t % slots_.size()].store(op, std::memory_order_relaxed);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  CrossShardOp* Pop() {
    const size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) {
      return nullptr;
    }
    CrossShardOp* op = slots_[h % slots_.size()].load(std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
    return op;
  }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<size_t> head_{0};
  std::atomic<size_t> tail_{0};
  std::vector<std::atomic<CrossShardOp*>> slots_;
};

/// The N x N mailbox fabric plus per-shard executors and wakeups.
class ShardExchange {
 public:
  explicit ShardExchange(uint32_t shard_count, size_t ring_capacity = 256);

  uint32_t shard_count() const { return shard_count_; }

  /// Installs shard `self`'s op executor (called from ServiceInbox on the
  /// owning thread). Must be set before the shard's loop starts.
  void SetExecutor(uint32_t self, std::function<void(CrossShardOp*)> fn);
  /// Registers shard `to`'s eventfd so producers can interrupt its
  /// epoll_wait after pushing ops.
  void SetWakeFd(uint32_t to, int fd);

  /// Enqueues `op` for shard `to`. Blocks (servicing `from`'s own inbox, so
  /// no deadlock) while the ring is full. Does NOT wake the target; callers
  /// batch pushes and call Wake(to) once per scatter.
  void Submit(uint32_t from, uint32_t to, CrossShardOp* op);

  /// eventfd nudge so a sleeping shard notices its inbox.
  void Wake(uint32_t to);

  /// Pops and executes every op currently queued for shard `self`.
  /// Returns the number of ops serviced. Called from the owning thread only.
  size_t ServiceInbox(uint32_t self);

  /// Spin-waits for `op->done`, servicing `self`'s inbox between polls so
  /// mutually-waiting shards make progress.
  void AwaitOp(uint32_t self, CrossShardOp* op);

  /// Shutdown protocol: each shard calls NotifyStopped() when it leaves its
  /// loop, then keeps servicing its inbox until AllStopped() — after which
  /// no new ops can exist (every op is awaited within its creating batch).
  void NotifyStopped();
  bool AllStopped() const {
    return stopped_.load(std::memory_order_acquire) >= shard_count_;
  }

  /// The global cas sequence shared by all shard ItemStores, so cas values
  /// stay unique (and, for sequential clients, identical to the
  /// single-threaded server's).
  std::atomic<uint64_t>* shared_cas() { return &shared_cas_; }

 private:
  SpscOpRing& ring(uint32_t from, uint32_t to) {
    return *rings_[from * shard_count_ + to];
  }

  uint32_t shard_count_;
  std::vector<std::unique_ptr<SpscOpRing>> rings_;  // [from * N + to]
  std::vector<std::function<void(CrossShardOp*)>> executors_;
  std::vector<int> wake_fds_;
  std::atomic<uint32_t> stopped_{0};
  std::atomic<uint64_t> shared_cas_{0};
};

}  // namespace spotcache::net
