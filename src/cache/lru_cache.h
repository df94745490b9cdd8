// Byte-capacity LRU cache — the eviction core of a memcached-like node.
//
// Flat layout for the data-path hot loop: entries live in a segmented slot
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
// In key-in-value mode the value may yield its charge too (a static
// KeyOf::Charge(value)); then the slot keeps no charge either, Entry::bytes()
// derives it, and Put's `bytes` must equal it. The server's store does this:
// its block holds both lengths.
// A slot is flat: {prev, next, hash} as three uint32_t, a uint32_t charge
// unless the value yields it, then the key (stored mode only) and the value.
// With an 8-byte, 4-aligned value that yields its key and charge that is 20
// bytes; a nested {value, size_t charge} entry would pad it to 32 or 40. The
// charge is 32 bits, so Put rejects one above UINT32_MAX in every mode;
// bytes_used() sums charges in size_t.
//
// The arena is dense: slots [0, size()) are exactly the live entries, with no
// free list. Erase and eviction move the last slot into the hole (re-pointing
// its bucket and list neighbours) and pop it. The arena is a table of
// fixed-size segments of kSegmentSlots slots that are never copied: growth
// allocates one more segment without constructing or zero-filling its slots,
// and once removals leave two tail segments empty the last one is freed (one
// empty segment of hysteresis, so a count oscillating around a boundary does
// not allocate and free by turns). A slot therefore never moves but to fill a
// hole, and the arena's memory follows the live count, never below the
// largest Reserve(). The buckets follow it too: once fewer than a quarter of
// the items the table is sized for are live, it is rehashed down to twice
// the live count (again never below the largest Reserve()). So a store that
// fills with many small items and then churns a few large ones gives the
// index memory back instead of keeping its high-water mark.
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
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
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

/// Whether the value yields its own charge: KeyOf::Charge(value).
template <typename KeyOf, typename V>
concept YieldsCharge = requires(const V& v) {
  { KeyOf::Charge(v) } -> std::convertible_to<size_t>;
};

/// The recency links and the key's hash every arena slot starts with; they
/// belong to the cache.
class SlotLinks {
  template <typename, typename, typename, typename, typename>
  friend class spotcache::LruCache;

  uint32_t prev = kNil;  // toward MRU
  uint32_t next = kNil;  // toward LRU
  uint32_t hash = 0;     // HashOf(key)
};

/// The links plus a stored charge, for values that do not yield theirs.
struct ChargedSlot : SlotLinks {
  uint32_t bytes = 0;  // the charge
};

/// A key-in-value slot that stores its charge: the key is KeyOf{}(value).
template <typename K, typename V, typename KeyOf,
          bool kValueCharge = YieldsCharge<KeyOf, V>>
struct Entry : ChargedSlot {
  V value;

  K key() const { return KeyOf{}(value); }
};

/// A key-in-value slot whose value yields its charge too.
template <typename K, typename V, typename KeyOf>
struct Entry<K, V, KeyOf, true> : SlotLinks {
  V value;

  K key() const { return KeyOf{}(value); }
  size_t bytes() const { return KeyOf::Charge(value); }
};

/// A stored-key slot.
template <typename K, typename V>
struct Entry<K, V, void, false> : ChargedSlot {
  K key;
  V value;
};

}  // namespace lru_detail

template <typename K, typename V, typename Hash, typename EvictHook,
          typename KeyOf>
class LruCache {
 public:
  /// One arena slot, as eviction hooks and ForEachMruToLru see it: `value`,
  /// `bytes` (or `bytes()` when the value yields its charge), and `key`
  /// (stored mode) or `key()` (key-in-value mode).
  using Entry = lru_detail::Entry<K, V, KeyOf>;

  using EvictionCallback = std::function<void(const Entry&)>;

 private:
  // void selects the type-erased std::function hook (the compatible default);
  // any other functor type is stored by value and invoked directly.
  static constexpr bool kFunctionHook = std::is_void_v<EvictHook>;
  using HookStorage =
      std::conditional_t<kFunctionHook, EvictionCallback, EvictHook>;

  static constexpr bool kStoredKey = std::is_void_v<KeyOf>;
  static constexpr bool kValueCharge = lru_detail::YieldsCharge<KeyOf, V>;
  static constexpr uint32_t kNil = lru_detail::kNil;
  using Slot = Entry;
  static constexpr size_t kSegmentShift = 8;

 public:
  /// Arena bytes per slot, for sizing index_bytes().
  static constexpr size_t kSlotBytes = sizeof(Slot);
  /// Slots per arena segment: the step in which the arena grows and shrinks.
  static constexpr size_t kSegmentSlots = size_t{1} << kSegmentShift;

  explicit LruCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}
  // The arena's segments are owned raw storage.
  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;
  ~LruCache() {
    DestroySlots();
    while (!segments_.empty()) {
      FreeLastSegment();
    }
  }

  /// Pre-sizes the arena and hash table for `expected_items` so a run over a
  /// known working set never rehashes or allocates mid-stream. Neither ever
  /// shrinks below the largest reservation.
  void Reserve(size_t expected_items) {
    reserved_ = std::max(reserved_, expected_items);
    segments_.reserve(SegmentsFor(expected_items));
    while (segments_.size() < SegmentsFor(expected_items)) {
      AddSegment();
    }
    const size_t want = BucketsFor(expected_items);
    if (want > buckets_.size()) {
      Rehash(want);
    }
  }

  /// Inserts or overwrites; evicts LRU entries until the item fits. Returns
  /// false (and stores nothing) if `bytes` alone exceeds the capacity or
  /// UINT32_MAX. In key-in-value mode `key` must equal the key `value` yields
  /// (and `bytes` the charge, when it yields one).
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
        Slot& slot = At(s);
        bytes_used_ -= ChargeOf(slot);
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
    assert(size_ < kNil);
    const auto s = static_cast<uint32_t>(size_);
    if (size_ == segments_.size() * kSegmentSlots) {
      AddSegment();
    }
    Slot& slot = *std::construct_at(&At(s));
    ++size_;
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
  /// call: any erase or eviction may move the last slot into the hole.
  V* Lookup(const K& key) {
    const uint32_t s = FindSlot(key);
    if (s == kNil) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    MoveToFront(s);
    return &At(s).value;
  }

  /// Lookup without promotion or stats. The pointer is valid until the next
  /// mutating call, as for Lookup.
  const V* Peek(const K& key) const {
    const uint32_t s = FindSlot(key);
    return s == kNil ? nullptr : &At(s).value;
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
    DestroySlots();
    buckets_.clear();
    head_ = tail_ = kNil;
    bytes_used_ = 0;
    MaybeShrink();
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
  /// Heap held by the arena (its segments and their table) and the hash
  /// table: allocated, not just live.
  size_t index_bytes() const {
    return segments_.size() * kSegmentSlots * sizeof(Slot) +
           segments_.capacity() * sizeof(Slot*) +
           buckets_.capacity() * sizeof(uint32_t);
  }

  /// Visits entries from most- to least-recently used.
  template <typename Fn>
  void ForEachMruToLru(Fn&& fn) const {
    for (uint32_t s = head_; s != kNil; s = At(s).next) {
      fn(At(s));
    }
  }

 private:
  static constexpr size_t kMinBuckets = 16;

  /// Power-of-two bucket count that keeps `items` under a 3/4 load factor.
  static size_t BucketsFor(size_t items) {
    size_t want = kMinBuckets;
    while (want * 3 < items * 4) {
      want <<= 1;
    }
    return want;
  }

  static size_t SegmentsFor(size_t slots) {
    return (slots + kSegmentSlots - 1) >> kSegmentShift;
  }

  /// The slot's key: its own copy, or the one its value yields.
  static decltype(auto) KeyAt(const Slot& slot) {
    if constexpr (kStoredKey) {
      return (slot.key);
    } else {
      return slot.key();
    }
  }

  /// The slot's charge: stored, or the one its value yields.
  static size_t ChargeOf(const Slot& slot) {
    if constexpr (kValueCharge) {
      return slot.bytes();
    } else {
      return slot.bytes;
    }
  }

  static void Fill(Slot& slot, const K& key, V&& value, size_t bytes) {
    if constexpr (kStoredKey) {
      slot.key = key;
    }
    slot.value = std::move(value);
    if constexpr (!kValueCharge) {
      slot.bytes = static_cast<uint32_t>(bytes);
    }
    assert(KeyAt(slot) == key);
    assert(ChargeOf(slot) == bytes);
  }

  // ---- Intrusive recency list ------------------------------------------

  void LinkFront(uint32_t s) {
    At(s).prev = kNil;
    At(s).next = head_;
    if (head_ != kNil) {
      At(head_).prev = s;
    }
    head_ = s;
    if (tail_ == kNil) {
      tail_ = s;
    }
  }

  void Unlink(uint32_t s) {
    Slot& slot = At(s);
    if (slot.prev != kNil) {
      At(slot.prev).next = slot.next;
    } else {
      head_ = slot.next;
    }
    if (slot.next != kNil) {
      At(slot.next).prev = slot.prev;
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

  Slot& At(uint32_t s) {
    return segments_[s >> kSegmentShift][s & (kSegmentSlots - 1)];
  }
  const Slot& At(uint32_t s) const {
    return segments_[s >> kSegmentShift][s & (kSegmentSlots - 1)];
  }

  /// Appends a segment of unconstructed slots.
  void AddSegment() {
    segments_.reserve(segments_.size() + 1);
    segments_.push_back(std::allocator<Slot>().allocate(kSegmentSlots));
  }

  void FreeLastSegment() {
    std::allocator<Slot>().deallocate(segments_.back(), kSegmentSlots);
    segments_.pop_back();
  }

  void DestroySlots() {
    for (uint32_t s = 0; s < size_; ++s) {
      std::destroy_at(&At(s));
    }
    size_ = 0;
  }

  /// Drops slot `s`, whose index entry sits in bucket `b`, and keeps the
  /// arena dense: the last slot moves into the hole and the bucket and list
  /// links that named it are re-pointed.
  void RemoveSlot(uint32_t s, size_t b) {
    bytes_used_ -= ChargeOf(At(s));
    EraseBucket(b);
    Unlink(s);
    const auto last = static_cast<uint32_t>(size_ - 1);
    if (s != last) {
      buckets_[BucketHolding(last)] = s;
      Slot& slot = At(s);
      slot = std::move(At(last));  // releases the removed value
      if (slot.prev != kNil) {
        At(slot.prev).next = s;
      } else {
        head_ = s;
      }
      if (slot.next != kNil) {
        At(slot.next).prev = s;
      } else {
        tail_ = s;
      }
    }
    std::destroy_at(&At(last));
    --size_;
  }

  /// Gives memory back after removals: frees tail segments while two are
  /// empty, and rehashes the buckets down to twice the live count once
  /// fewer than a quarter of the items they are sized for are live; neither
  /// goes below the largest Reserve().
  void MaybeShrink() {
    const size_t keep =
        std::max(SegmentsFor(size_) + 1, SegmentsFor(reserved_));
    while (segments_.size() > keep) {
      FreeLastSegment();
    }
    if (size_ * 16 < buckets_.size() * 3) {
      const size_t want = BucketsFor(std::max(size_ * 2, reserved_));
      if (want < buckets_.size()) {
        Rehash(want);
      }
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
    size_t b = At(s).hash & mask;
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
      const Slot& slot = At(buckets_[b]);
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
    // The slot is already in the arena, so size_ counts it.
    if (buckets_.empty() || size_ * 4 > buckets_.size() * 3) {
      Rehash(buckets_.empty() ? kMinBuckets : buckets_.size() * 2);
      return;  // Rehash indexed every linked slot, `s` included
    }
    PlaceInEmptyBucket(s);
  }

  void PlaceInEmptyBucket(uint32_t s) {
    const size_t mask = buckets_.size() - 1;
    size_t b = At(s).hash & mask;
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
      const size_t home = At(buckets_[j]).hash & mask;
      // Move j's entry into the hole only if its probe path crosses i.
      if (((j - home) & mask) >= ((j - i) & mask)) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
  }

  void Rehash(size_t new_buckets) {
    // The table is rebuilt from the LRU list, never from the old one, so the
    // old one is freed first and the two are never held at once. The price:
    // if this allocation throws, the live slots are left unindexed and the
    // cache must not be used again (no strong exception guarantee).
    std::vector<uint32_t>().swap(buckets_);
    buckets_.assign(new_buckets, kNil);
    for (uint32_t s = head_; s != kNil; s = At(s).next) {
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
      NotifyEvict(At(s));
      RemoveSlot(s, BucketHolding(s));
      ++evictions_;
    }
    MaybeShrink();
  }

  size_t capacity_bytes_;
  size_t bytes_used_ = 0;
  size_t reserved_ = 0;  // largest Reserve(): the arena's and table's floor
  size_t size_ = 0;      // live slots: [0, size_) are constructed
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::vector<Slot*> segments_;    // kSegmentSlots slots each
  std::vector<uint32_t> buckets_;  // slot index per bucket; kNil = empty
  uint32_t head_ = kNil;           // MRU
  uint32_t tail_ = kNil;           // LRU
  HookStorage hook_{};
};

}  // namespace spotcache
