#include "src/net/sharding.h"

#include <unistd.h>

#include <thread>

namespace spotcache::net {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ShardExchange::ShardExchange(uint32_t shard_count, size_t ring_capacity)
    : shard_count_(shard_count),
      executors_(shard_count),
      wake_fds_(shard_count, -1) {
  // No ring from a reactor to itself: a reactor never sends itself an op.
  rings_.reserve(static_cast<size_t>(shard_count) * shard_count);
  for (uint32_t from = 0; from < shard_count; ++from) {
    for (uint32_t to = 0; to < shard_count; ++to) {
      rings_.push_back(from == to
                           ? nullptr
                           : std::make_unique<SpscOpRing>(ring_capacity));
    }
  }
}

void ShardExchange::SetExecutor(uint32_t self,
                                std::function<void(CrossShardOp*)> fn) {
  executors_[self] = std::move(fn);
}

void ShardExchange::SetWakeFd(uint32_t to, int fd) { wake_fds_[to] = fd; }

void ShardExchange::Submit(uint32_t from, uint32_t to, CrossShardOp* op) {
  SpscOpRing& r = ring(from, to);
  while (!r.Push(op)) {
    // Ring full: the target is behind. Service our own inbox (the target
    // may itself be blocked on an op we owe it), nudge it, and retry.
    ServiceInbox(from);
    Wake(to);
    std::this_thread::yield();
  }
}

void ShardExchange::Wake(uint32_t to) {
  const int fd = wake_fds_[to];
  if (fd >= 0) {
    const uint64_t one = 1;
    (void)!::write(fd, &one, sizeof(one));
  }
}

size_t ShardExchange::ServiceInbox(uint32_t self) {
  size_t serviced = 0;
  const auto& exec = executors_[self];
  for (uint32_t from = 0; from < shard_count_; ++from) {
    if (from == self) {
      continue;
    }
    SpscOpRing& r = ring(from, self);
    while (CrossShardOp* op = r.Pop()) {
      exec(op);
      ++serviced;
    }
  }
  return serviced;
}

void ShardExchange::AwaitOp(uint32_t self, CrossShardOp* op) {
  if (op->done.load(std::memory_order_acquire)) {
    return;
  }
  uint32_t spins = 0;
  for (;;) {
    const size_t serviced = ServiceInbox(self);
    if (op->done.load(std::memory_order_acquire)) {
      return;
    }
    if (serviced == 0) {
      // Nothing to do locally: the owner is mid-batch. Back off so a
      // core-oversubscribed host (CI runners) still schedules the owner.
      if (++spins >= 64) {
        std::this_thread::yield();
        spins = 0;
      } else {
        CpuRelax();
      }
    }
  }
}

void ShardExchange::NotifyStopped() {
  stopped_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace spotcache::net
