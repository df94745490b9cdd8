// Multi-reactor plumbing: the key -> stripe hash and the cross-reactor
// mailbox.
//
// ShardOfKey maps a key to one of N slots with the same splitmix64-finalized
// hash the telemetry and routing tiers compute (HashString). It is a pure
// function of (key, N), so the mapping is stable across restarts and
// identical in the server, the tests and any external tooling. The server's
// StripedStore uses it to pick a key's stripe.
//
// The reactors share that store, so no store operation crosses reactors. The
// mailbox is left with one job: in the accept fallback (no SO_REUSEPORT, or
// `force_dispatch`), reactor 0 accepts every connection and hands each to
// its owner as a kAdoptConn op. An op travels through a bounded SPSC ring per
// ordered reactor pair: the sender fills a CrossShardOp, pushes a pointer
// into ring (from -> to), wakes the target's eventfd and awaits `done`; the
// target executes the op on its own thread. The ring indices and `done` are
// the only atomics, and the release/acquire pair on `done` publishes the
// reply fields.
//
// Deadlock freedom: a reactor awaiting a reply keeps servicing its own inbox,
// so two reactors waiting on each other both make progress. At shutdown
// every reactor drains its inbox until all reactors have left their loops
// (NotifyStopped/AllStopped), so a waiter is never stranded by a peer that
// exited first.

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

/// Key -> slot in [0, shard_count). Splitmix64-finalized (HashString),
/// modulo-mapped; pure, so the assignment survives restarts and is testable
/// in isolation.
inline uint32_t ShardOfKey(std::string_view key, uint32_t shard_count) {
  if (shard_count <= 1) {
    return 0;
  }
  return static_cast<uint32_t>(HashString(key) % shard_count);
}

/// One cross-reactor operation. Allocated by the sender (stable address
/// until it is awaited), executed by the target reactor. Request fields are
/// published by the ring push (release on the ring tail); reply fields are
/// published by `done` (release store / acquire load).
struct CrossShardOp {
  enum class Kind : uint8_t {
    kGet,        // key+now -> found/rdata; the server sends none, the
                 // perfbench hop replay times the mailbox with it
    kAdoptConn,  // fd handoff (accept fallback)
  };

  Kind kind = Kind::kGet;
  std::string key;
  int64_t now = 0;  // the sender's expiry clock
  int fd = -1;      // kAdoptConn

  // Reply (target-written, valid after `done` reads true).
  bool found = false;
  ItemRef rdata;  // kGet hit: the item's block

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
  /// call Wake(to) after their pushes.
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
  /// no new ops can exist (every op is awaited by its sender).
  void NotifyStopped();
  bool AllStopped() const {
    return stopped_.load(std::memory_order_acquire) >= shard_count_;
  }

 private:
  SpscOpRing& ring(uint32_t from, uint32_t to) {
    return *rings_[from * shard_count_ + to];
  }

  uint32_t shard_count_;
  // [from * N + to]; null where from == to.
  std::vector<std::unique_ptr<SpscOpRing>> rings_;
  std::vector<std::function<void(CrossShardOp*)>> executors_;
  std::vector<int> wake_fds_;
  std::atomic<uint32_t> stopped_{0};
};

}  // namespace spotcache::net
