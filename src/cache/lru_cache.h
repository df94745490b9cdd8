// Byte-capacity LRU cache — the eviction core of a memcached-like node.
//
// Flat layout for the data-path hot loop: entries live in one contiguous slot
// arena, recency order is an intrusive doubly-linked list of 32-bit slot
// indices threaded through the arena, and lookup is an open-addressing
// (linear-probe, backward-shift-delete) hash table of slot indices. Compared
// to the classic std::list + std::unordered_map shape (preserved verbatim in
// lru_cache_ref.h) this removes the per-entry heap node, the duplicate key
// copy in the index, and every pointer chase but one — the same arena +
// intrusive-list shape CacheLib and memcached's slab LRU use. Each slot keeps
// its key's 32-bit hash: probes compare it before the key, and deletion,
// rehashing and moving a slot find buckets without touching other keys (the
// server's store keeps each key in its item's heap block, so reading one is
// usually a cache miss).
//
// Two key modes, chosen by the KeyOf template parameter:
//   - stored key (KeyOf = void, the default): a slot keeps its own copy of
//     the key, exposed as Entry::key;
//   - key in value: a slot keeps no key; KeyOf{}(value) derives it, exposed
//     as Entry::key(). Put still takes the key (it must equal the one the
//     value yields) to hash and probe with. The server's store uses this
//     mode: its value already names the block that holds the key bytes.
// A slot is flat: {charge, prev, next, hash} as four uint32_t, then the key
// (stored mode only) and the value. With an 8-byte value and a derived key
// that is 24 bytes; a nested {value, size_t charge} entry would pad it to 32
// or 40. The charge is 32 bits, so Put rejects one above UINT32_MAX in both
// modes; bytes_used() sums charges in size_t.
//
// The arena is dense: slots [0, size()) are exactly the live entries, with no
// free list. Erase and eviction move the last slot into the hole (re-pointing
// its bucket and list neighbours) and pop it. When removals leave fewer than
// a quarter of the arena's capacity live, the arena is reallocated at twice
// the live count and the buckets are rehashed down to match, never below the
// largest Reserve(). So a store that fills with many small items and then
// churns a few large ones gives the index memory back instead of keeping its
// high-water mark.
//
// Behavior is bit-identical to the reference implementation for charges up
// to UINT32_MAX: same hit / miss / eviction sequences, same byte accounting,
// same MRU→LRU iteration order (test_lru_equivalence drives both through
// ~1e5 randomized ops to prove it; test_lru_cache does the same for the
// key-in-value mode). The overwrite path is the one deliberate improvement
// folded in: Put on an existing key updates value/bytes in place and splices
// the slot to the front instead of erase + re-insert (two hash walks and node
// churn in the reference; the observable semantics are unchanged).
//
// The eviction hook is a template parameter so simulation code that needs a
// hook pays a direct (inlineable) call instead of a std::function dispatch.
// The default instantiation keeps the original std::function-based
// SetEvictionCallback API, so existing callers compile unchanged.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace spotcache {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename EvictHook = void, typename KeyOf = void>
class LruCache;

namespace lru_detail {

inline constexpr uint32_t kNil = 0xffffffffu;

/// The fields every arena slot starts with. Only the charge is public; the
/// recency links and the key's hash belong to the cache.
class SlotHeader {
 public:
  uint32_t bytes = 0;  // the charge

 private:
  template <typename, typename, typename, typename, typename>
  friend class spotcache::LruCache;

  uint32_t prev = kNil;  // toward MRU
  uint32_t next = kNil;  // toward LRU
  uint32_t hash = 0;     // HashOf(key)
};

/// A key-in-value slot: the key is KeyOf{}(value).
template <typename K, typename V, typename KeyOf>
struct Entry : SlotHeader {
  V value;

  K key() const { return KeyOf{}(value); }
};

/// A stored-key slot.
template <typename K, typename V>
struct Entry<K, V, void> : SlotHeader {
  K key;
  V value;
};

}  // namespace lru_detail

template <typename K, typename V, typename Hash, typename EvictHook,
          typename KeyOf>
class LruCache {
 public:
  /// One arena slot, as eviction hooks and ForEachMruToLru see it: `value`,
  /// `bytes`, and `key` (stored mode) or `key()` (key-in-value mode).
  using Entry = lru_detail::Entry<K, V, KeyOf>;

  using EvictionCallback = std::function<void(const Entry&)>;

 private:
  // void selects the type-erased std::function hook (the compatible default);
  // any other functor type is stored by value and invoked directly.
  static constexpr bool kFunctionHook = std::is_void_v<EvictHook>;
  using HookStorage =
      std::conditional_t<kFunctionHook, EvictionCallback, EvictHook>;

  static constexpr bool kStoredKey = std::is_void_v<KeyOf>;
  static constexpr uint32_t kNil = lru_detail::kNil;
  using Slot = Entry;

 public:
  /// Arena bytes per slot, for sizing index_bytes().
  static constexpr size_t kSlotBytes = sizeof(Slot);

  explicit LruCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

  /// Pre-sizes the arena and hash table for `expected_items` so a run over a
  /// known working set never rehashes or reallocates mid-stream. The arena
  /// never shrinks below the largest reservation.
  void Reserve(size_t expected_items) {
    reserved_ = std::max(reserved_, expected_items);
    slots_.reserve(expected_items);
    const size_t want = BucketsFor(expected_items);
    if (want > buckets_.size()) {
      Rehash(want);
    }
  }

  /// Inserts or overwrites; evicts LRU entries until the item fits. Returns
  /// false (and stores nothing) if `bytes` alone exceeds the capacity or
  /// UINT32_MAX. In key-in-value mode `key` must equal the key `value` yields.
  bool Put(const K& key, V value, size_t bytes) {
    if (bytes > capacity_bytes_ || bytes > UINT32_MAX) {
      return false;
    }
    const uint32_t hash = HashOf(key);
    if (!buckets_.empty()) {
      const size_t b = FindBucket(key, hash);
      if (buckets_[b] != kNil) {
        // Overwrite in place: adjust byte accounting, splice to MRU, then
        // evict as needed. Same victims as the reference's erase+reinsert —
        // this entry is at the front, so it is never its own victim.
        const uint32_t s = buckets_[b];
        Slot& slot = slots_[s];
        bytes_used_ -= slot.bytes;
        // A stored key is re-pointed too: a view key may live in the very
        // value this overwrite releases. A derived key follows the value.
        Fill(slot, key, std::move(value), bytes);
        MoveToFront(s);
        bytes_used_ += bytes;
        EvictUntilFits(0);
        return true;
      }
    }
    EvictUntilFits(bytes);
    assert(slots_.size() < kNil);
    const auto s = static_cast<uint32_t>(slots_.size());
    Slot& slot = slots_.emplace_back();
    Fill(slot, key, std::move(value), bytes);
    slot.hash = hash;
    LinkFront(s);
    InsertIndex(s);
    bytes_used_ += bytes;
    return true;
  }

  /// Looks the key up and promotes it to most-recently-used.
  std::optional<V> Get(const K& key) {
    const V* v = Lookup(key);
    return v == nullptr ? std::nullopt : std::optional<V>(*v);
  }

  /// Get without the copy. The pointer is valid until the next mutating
  /// call: growth and shrinking move the arena, and any erase or eviction
  /// moves the last slot into the hole.
  V* Lookup(const K& key) {
    const uint32_t s = FindSlot(key);
    if (s == kNil) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    MoveToFront(s);
    return &slots_[s].value;
  }

  /// Lookup without promotion or stats. The pointer is valid until the next
  /// mutating call, as for Lookup.
  const V* Peek(const K& key) const {
    const uint32_t s = FindSlot(key);
    return s == kNil ? nullptr : &slots_[s].value;
  }

  bool Contains(const K& key) const { return FindSlot(key) != kNil; }

  bool Erase(const K& key) {
    if (buckets_.empty()) {
      return false;
    }
    const size_t b = FindBucket(key, HashOf(key));
    if (buckets_[b] == kNil) {
      return false;
    }
    RemoveSlot(buckets_[b], b);
    MaybeShrink();
    return true;
  }

  void Clear() {
    slots_.clear();
    buckets_.clear();
    head_ = tail_ = kNil;
    bytes_used_ = 0;
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

  size_t size() const { return slots_.size(); }
  size_t bytes_used() const { return bytes_used_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  /// Heap held by the arena and the hash table (allocated, not just live).
  size_t index_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           buckets_.capacity() * sizeof(uint32_t);
  }

  /// Visits entries from most- to least-recently used.
  template <typename Fn>
  void ForEachMruToLru(Fn&& fn) const {
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      fn(slots_[s]);
    }
  }

 private:
  static constexpr size_t kMinBuckets = 16;
  /// The arena is never shrunk below this many slots.
  static constexpr size_t kMinSlots = 16;

  /// Power-of-two bucket count that keeps `items` under a 3/4 load factor.
  static size_t BucketsFor(size_t items) {
    size_t want = kMinBuckets;
    while (want * 3 < items * 4) {
      want <<= 1;
    }
    return want;
  }

  /// The slot's key: its own copy, or the one its value yields.
  static decltype(auto) KeyAt(const Slot& slot) {
    if constexpr (kStoredKey) {
      return (slot.key);
    } else {
      return slot.key();
    }
  }

  static void Fill(Slot& slot, const K& key, V&& value, size_t bytes) {
    if constexpr (kStoredKey) {
      slot.key = key;
    }
    slot.value = std::move(value);
    slot.bytes = static_cast<uint32_t>(bytes);
    assert(KeyAt(slot) == key);
  }

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

  /// Drops slot `s`, whose index entry sits in bucket `b`, and keeps the
  /// arena dense: the last slot moves into the hole and the bucket and list
  /// links that named it are re-pointed.
  void RemoveSlot(uint32_t s, size_t b) {
    bytes_used_ -= slots_[s].bytes;
    EraseBucket(b);
    Unlink(s);
    const auto last = static_cast<uint32_t>(slots_.size() - 1);
    if (s != last) {
      buckets_[BucketHolding(last)] = s;
      Slot& slot = slots_[s];
      slot = std::move(slots_[last]);  // releases the removed value
      if (slot.prev != kNil) {
        slots_[slot.prev].next = s;
      } else {
        head_ = s;
      }
      if (slot.next != kNil) {
        slots_[slot.next].prev = s;
      } else {
        tail_ = s;
      }
    }
    slots_.pop_back();
  }

  /// Gives memory back once fewer than a quarter of the arena's slots are
  /// live: reallocates it at twice the live count and rehashes the buckets
  /// down to match, never below the largest Reserve().
  void MaybeShrink() {
    const size_t floor = std::max(reserved_, kMinSlots);
    if (slots_.capacity() <= floor || slots_.size() * 4 >= slots_.capacity()) {
      return;
    }
    const size_t keep = std::max(slots_.size() * 2, floor);
    std::vector<Slot> arena;
    arena.reserve(keep);
    std::move(slots_.begin(), slots_.end(), std::back_inserter(arena));
    slots_ = std::move(arena);
    const size_t want = BucketsFor(keep);
    if (want < buckets_.size()) {
      Rehash(want);
    }
  }

  // ---- Open-addressing index -------------------------------------------

  static uint32_t HashOf(const K& key) {
    // Spread the hash so power-of-two masking is safe even for identity
    // std::hash implementations (Fibonacci multiplicative mixing).
    const uint64_t h = static_cast<uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<uint32_t>(h >> 32);
  }

  /// The bucket that indexes slot `s`.
  size_t BucketHolding(uint32_t s) const {
    const size_t mask = buckets_.size() - 1;
    size_t b = slots_[s].hash & mask;
    while (buckets_[b] != s) {
      b = (b + 1) & mask;
    }
    return b;
  }

  /// Bucket holding `key` (whose HashOf is `hash`), or the empty bucket
  /// where it would be inserted.
  size_t FindBucket(const K& key, uint32_t hash) const {
    const size_t mask = buckets_.size() - 1;
    size_t b = hash & mask;
    while (buckets_[b] != kNil) {
      const Slot& slot = slots_[buckets_[b]];
      if (slot.hash == hash && KeyAt(slot) == key) {
        break;
      }
      b = (b + 1) & mask;
    }
    return b;
  }

  uint32_t FindSlot(const K& key) const {
    if (buckets_.empty()) {
      return kNil;
    }
    return buckets_[FindBucket(key, HashOf(key))];
  }

  /// Indexes slot `s`, whose key is not in the table yet.
  void InsertIndex(uint32_t s) {
    // The slot is already in the arena, so slots_.size() counts it.
    if (buckets_.empty() || slots_.size() * 4 > buckets_.size() * 3) {
      Rehash(buckets_.empty() ? kMinBuckets : buckets_.size() * 2);
      return;  // Rehash indexed every linked slot, `s` included
    }
    PlaceInEmptyBucket(s);
  }

  void PlaceInEmptyBucket(uint32_t s) {
    const size_t mask = buckets_.size() - 1;
    size_t b = slots_[s].hash & mask;
    while (buckets_[b] != kNil) {
      b = (b + 1) & mask;
    }
    buckets_[b] = s;
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
      const size_t home = slots_[buckets_[j]].hash & mask;
      // Move j's entry into the hole only if its probe path crosses i.
      if (((j - home) & mask) >= ((j - i) & mask)) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
  }

  void Rehash(size_t new_buckets) {
    // A fresh vector, not assign(): a smaller table must free the old one.
    buckets_ = std::vector<uint32_t>(new_buckets, kNil);
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      PlaceInEmptyBucket(s);
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
      NotifyEvict(slots_[s]);
      RemoveSlot(s, BucketHolding(s));
      ++evictions_;
    }
    MaybeShrink();
  }

  size_t capacity_bytes_;
  size_t bytes_used_ = 0;
  size_t reserved_ = 0;  // largest Reserve(): the arena's shrink floor
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> buckets_;  // slot index per bucket; kNil = empty
  uint32_t head_ = kNil;           // MRU
  uint32_t tail_ = kNil;           // LRU
  HookStorage hook_{};
};

}  // namespace spotcache
