// Byte-capacity LRU cache — the eviction core of a memcached-like node.
//
// Flat layout for the data-path hot loop: entries live in one contiguous slot
// arena, recency order is an intrusive doubly-linked list of 32-bit slot
// indices threaded through the arena, and lookup is an open-addressing
// (linear-probe, backward-shift-delete) hash table of slot indices. Compared
// to the classic std::list + std::unordered_map shape (preserved verbatim in
// lru_cache_ref.h) this removes the per-entry heap node, the duplicate key
// copy in the index, and every pointer chase but one — the same arena +
// intrusive-list shape CacheLib and memcached's slab LRU use.
//
// Behavior is bit-identical to the reference implementation: same hit / miss
// / eviction sequences, same byte accounting, same MRU→LRU iteration order
// (test_lru_equivalence drives both through ~1e5 randomized ops to prove it).
// The overwrite path is the one deliberate improvement folded in: Put on an
// existing key updates value/bytes in place and splices the slot to the front
// instead of erase + re-insert (two hash walks and node churn in the
// reference; the observable semantics are unchanged).
//
// The eviction hook is a template parameter so simulation code that needs a
// hook pays a direct (inlineable) call instead of a std::function dispatch.
// The default instantiation keeps the original std::function-based
// SetEvictionCallback API, so existing callers compile unchanged.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace spotcache {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename EvictHook = void>
class LruCache {
 public:
  struct Entry {
    K key;
    V value;
    size_t bytes = 0;
  };

  using EvictionCallback = std::function<void(const Entry&)>;

 private:
  // void selects the type-erased std::function hook (the compatible default);
  // any other functor type is stored by value and invoked directly.
  static constexpr bool kFunctionHook = std::is_void_v<EvictHook>;
  using HookStorage =
      std::conditional_t<kFunctionHook, EvictionCallback, EvictHook>;

  static constexpr uint32_t kNil = 0xffffffffu;

  struct Slot {
    Entry entry;
    uint32_t prev = kNil;  // toward MRU
    uint32_t next = kNil;  // toward LRU; doubles as the free-list link
  };

 public:
  explicit LruCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

  /// Pre-sizes the arena and hash table for `expected_items` so a run over a
  /// known working set never rehashes or reallocates mid-stream.
  void Reserve(size_t expected_items) {
    slots_.reserve(expected_items);
    size_t want = kMinBuckets;
    while (want * 3 < expected_items * 4) {  // keep load factor under 3/4
      want <<= 1;
    }
    if (want > buckets_.size()) {
      Rehash(want);
    }
  }

  /// Inserts or overwrites; evicts LRU entries until the item fits. Returns
  /// false (and stores nothing) if `bytes` alone exceeds the capacity.
  bool Put(const K& key, V value, size_t bytes) {
    if (bytes > capacity_bytes_) {
      return false;
    }
    if (!buckets_.empty()) {
      const size_t b = FindBucket(key);
      if (buckets_[b] != kNil) {
        // Overwrite in place: adjust byte accounting, splice to MRU, then
        // evict as needed. Same victims as the reference's erase+reinsert —
        // this entry is at the front, so it is never its own victim.
        const uint32_t s = buckets_[b];
        Slot& slot = slots_[s];
        bytes_used_ -= slot.entry.bytes;
        // The key is re-pointed too: a view key may live in the very value
        // this overwrite releases.
        slot.entry.key = key;
        slot.entry.value = std::move(value);
        slot.entry.bytes = bytes;
        MoveToFront(s);
        bytes_used_ += bytes;
        EvictUntilFits(0);
        return true;
      }
    }
    EvictUntilFits(bytes);
    const uint32_t s = AllocSlot();
    Slot& slot = slots_[s];
    slot.entry.key = key;
    slot.entry.value = std::move(value);
    slot.entry.bytes = bytes;
    LinkFront(s);
    InsertIndex(key, s);
    bytes_used_ += bytes;
    ++size_;
    return true;
  }

  /// Looks the key up and promotes it to most-recently-used.
  std::optional<V> Get(const K& key) {
    const V* v = Lookup(key);
    return v == nullptr ? std::nullopt : std::optional<V>(*v);
  }

  /// Get without the copy. The pointer is valid until the next mutating
  /// call (the arena may move on growth).
  V* Lookup(const K& key) {
    const uint32_t s = FindSlot(key);
    if (s == kNil) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    MoveToFront(s);
    return &slots_[s].entry.value;
  }

  /// Lookup without promotion or stats. The pointer is valid until the next
  /// mutating call (the arena may move on growth).
  const V* Peek(const K& key) const {
    const uint32_t s = FindSlot(key);
    return s == kNil ? nullptr : &slots_[s].entry.value;
  }

  bool Contains(const K& key) const { return FindSlot(key) != kNil; }

  bool Erase(const K& key) {
    if (buckets_.empty()) {
      return false;
    }
    const size_t b = FindBucket(key);
    if (buckets_[b] == kNil) {
      return false;
    }
    const uint32_t s = buckets_[b];
    bytes_used_ -= slots_[s].entry.bytes;
    EraseBucket(b);
    Unlink(s);
    FreeSlot(s);
    --size_;
    return true;
  }

  void Clear() {
    slots_.clear();
    buckets_.clear();
    head_ = tail_ = free_head_ = kNil;
    bytes_used_ = 0;
    size_ = 0;
  }

  /// Shrinks the capacity (evicting as needed) or grows it.
  void SetCapacity(size_t capacity_bytes) {
    capacity_bytes_ = capacity_bytes;
    EvictUntilFits(0);
  }

  void SetEvictionCallback(EvictionCallback cb)
    requires kFunctionHook
  {
    hook_ = std::move(cb);
  }

  /// Installs a statically-typed hook (only for non-default EvictHook
  /// instantiations); invoked with the victim Entry on every eviction.
  void SetEvictionHook(HookStorage hook)
    requires(!kFunctionHook)
  {
    hook_ = std::move(hook);
  }

  size_t size() const { return size_; }
  size_t bytes_used() const { return bytes_used_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /// Visits entries from most- to least-recently used.
  template <typename Fn>
  void ForEachMruToLru(Fn&& fn) const {
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      fn(slots_[s].entry);
    }
  }

 private:
  static constexpr size_t kMinBuckets = 16;

  // ---- Intrusive recency list ------------------------------------------

  void LinkFront(uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    if (head_ != kNil) {
      slots_[head_].prev = s;
    }
    head_ = s;
    if (tail_ == kNil) {
      tail_ = s;
    }
  }

  void Unlink(uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.prev != kNil) {
      slots_[slot.prev].next = slot.next;
    } else {
      head_ = slot.next;
    }
    if (slot.next != kNil) {
      slots_[slot.next].prev = slot.prev;
    } else {
      tail_ = slot.prev;
    }
  }

  void MoveToFront(uint32_t s) {
    if (head_ == s) {
      return;
    }
    Unlink(s);
    LinkFront(s);
  }

  // ---- Slot arena -------------------------------------------------------

  uint32_t AllocSlot() {
    if (free_head_ != kNil) {
      const uint32_t s = free_head_;
      free_head_ = slots_[s].next;
      return s;
    }
    assert(slots_.size() < kNil);
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void FreeSlot(uint32_t s) {
    slots_[s].entry = Entry{};  // drop the value (it may own memory)
    slots_[s].next = free_head_;
    slots_[s].prev = kNil;
    free_head_ = s;
  }

  // ---- Open-addressing index -------------------------------------------

  size_t BucketOf(const K& key) const {
    // Spread the hash so power-of-two masking is safe even for identity
    // std::hash implementations (Fibonacci multiplicative mixing).
    const uint64_t h = static_cast<uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h >> 32) & (buckets_.size() - 1);
  }

  /// Bucket holding `key`, or the empty bucket where it would be inserted.
  size_t FindBucket(const K& key) const {
    const size_t mask = buckets_.size() - 1;
    size_t b = BucketOf(key);
    while (buckets_[b] != kNil && !(slots_[buckets_[b]].entry.key == key)) {
      b = (b + 1) & mask;
    }
    return b;
  }

  uint32_t FindSlot(const K& key) const {
    if (buckets_.empty()) {
      return kNil;
    }
    const size_t b = FindBucket(key);
    return buckets_[b];
  }

  void InsertIndex(const K& key, uint32_t s) {
    if (buckets_.empty() || (size_ + 1) * 4 > buckets_.size() * 3) {
      Rehash(buckets_.empty() ? kMinBuckets : buckets_.size() * 2);
    }
    buckets_[FindBucket(key)] = s;
  }

  /// Knuth's backward-shift deletion: closes the probe-chain hole left at
  /// `hole` so lookups never need tombstones.
  void EraseBucket(size_t hole) {
    const size_t mask = buckets_.size() - 1;
    size_t i = hole;
    size_t j = hole;
    for (;;) {
      j = (j + 1) & mask;
      if (buckets_[j] == kNil) {
        buckets_[i] = kNil;
        return;
      }
      const size_t home = BucketOf(slots_[buckets_[j]].entry.key);
      // Move j's entry into the hole only if its probe path crosses i.
      if (((j - home) & mask) >= ((j - i) & mask)) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
  }

  void Rehash(size_t new_buckets) {
    buckets_.assign(new_buckets, kNil);
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      buckets_[FindBucket(slots_[s].entry.key)] = s;
    }
  }

  // ---- Eviction ---------------------------------------------------------

  void NotifyEvict(const Entry& victim) {
    if constexpr (kFunctionHook) {
      if (hook_) {
        hook_(victim);
      }
    } else {
      hook_(victim);
    }
  }

  void EvictUntilFits(size_t incoming_bytes) {
    while (tail_ != kNil && bytes_used_ + incoming_bytes > capacity_bytes_) {
      const uint32_t s = tail_;
      NotifyEvict(slots_[s].entry);
      bytes_used_ -= slots_[s].entry.bytes;
      EraseBucket(FindBucket(slots_[s].entry.key));
      Unlink(s);
      FreeSlot(s);
      --size_;
      ++evictions_;
    }
  }

  size_t capacity_bytes_;
  size_t bytes_used_ = 0;
  size_t size_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> buckets_;  // slot index per bucket; kNil = empty
  uint32_t head_ = kNil;           // MRU
  uint32_t tail_ = kNil;           // LRU
  uint32_t free_head_ = kNil;
  HookStorage hook_{};
};

}  // namespace spotcache
