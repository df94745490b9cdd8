// The server's authoritative byte store: string key -> (flags, expiry, cas,
// payload), LRU-bounded by byte capacity, with memcached's expiry rules.
//
// Each item is one heap block: a 28-byte ItemBlock header, then the key
// bytes, then the value bytes. The header packs what an item needs and no
// more: the refcount, the client flags, the 64-bit cas, two 32-bit unix-second
// times (deadline and store time, as memcached's 32-bit rel_time_t) and one
// 32-bit word holding both lengths (8 bits of key length, 24 of value
// length). glibc rounds a block of header + key + value up to a chunk of that
// plus 8 bytes in 16-byte steps, so an 8-byte key with a 100-byte value
// (136 B) takes a 144-byte chunk. The flat LruCache arena indexes the blocks
// in its key-in-value mode: a slot holds its recency links, its key's hash
// and a counted ItemRef to the block (20 bytes), and the key and the charge
// are read from the block. The response assembler holds ItemRefs to the same
// block, so a value stays valid across a batched writev even if a later
// request in the batch evicts, overwrites or deletes the item. The count is
// atomic because the reactors of a server share one store
// (striped_store.h): one reactor may drop the store's ref while another still
// holds a pin it took under the stripe lock.
//
// Every item is charged key + value + 64 bytes against the capacity, and
// eviction is strict LRU.
//
// Expiry follows memcached 1.6: exptime 0 never expires, negative is
// immediately expired, values up to 30 days are relative seconds, larger
// values are absolute unix seconds. A deadline past the 32-bit horizon is
// stored as the latest one the header holds (2106-02-07 06:28:14 UTC). flush_all(delay) marks everything stored before the flush
// point invisible once the point passes; a later delayed flush_all does not
// revive what an earlier one already hid. All time comes in through `now`
// parameters, so the store is a pure function of its inputs and
// deterministic under test clocks.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string_view>
#include <utility>

#include "src/cache/lru_cache.h"
#include "src/net/protocol.h"

namespace spotcache::net {

/// Seconds threshold below which exptime is relative (memcached's constant).
inline constexpr int64_t kRelativeExpiryCutoff = 60 * 60 * 24 * 30;

/// Header of one item's heap block; the key and value bytes follow it, from
/// byte 28. Everything but `refs` and `expires_at` (touch) is fixed once
/// stored. Packed to 4-byte alignment so the 64-bit cas leaves no tail
/// padding; malloc's 16-byte alignment keeps it 8-aligned in practice.
#pragma pack(push, 4)
struct ItemBlock {
  /// expires_at sentinels; a real deadline lies strictly between them.
  static constexpr uint32_t kNever = 0;
  static constexpr uint32_t kDead = UINT32_MAX;
  /// The latest deadline a block holds: later ones saturate to it.
  static constexpr uint32_t kLatestDeadline = kDead - 1;
  /// Bits of `lengths` that hold the key length; the value length gets the
  /// rest.
  static constexpr uint32_t kKeyLenBits = 8;

  std::atomic<uint32_t> refs{1};
  uint32_t flags = 0;
  uint64_t cas = 0;
  uint32_t expires_at = kNever;  // unix seconds, or a sentinel
  uint32_t stored_at = 0;        // unix seconds, for flush_all visibility
  uint32_t lengths = 0;          // key_len | value_len << kKeyLenBits

  uint32_t key_len() const { return lengths & ((1u << kKeyLenBits) - 1); }
  uint32_t value_len() const { return lengths >> kKeyLenBits; }
  std::string_view key() const { return {bytes(), key_len()}; }
  std::string_view value() const {
    return {bytes() + key_len(), value_len()};
  }

 private:
  const char* bytes() const {
    return reinterpret_cast<const char*>(this) + sizeof(ItemBlock);
  }
};
#pragma pack(pop)

static_assert(sizeof(ItemBlock) == 28,
              "refs + flags + cas + two times + lengths, unpadded");
static_assert(kMaxKeyBytes < (1u << ItemBlock::kKeyLenBits),
              "the protocol's longest key fits the key-length bits");
static_assert(kMaxValueBytes < (1u << (32 - ItemBlock::kKeyLenBits)),
              "the protocol's largest value fits the value-length bits");

/// Resolves a wire exptime into the deadline a block stores: kNever, kDead,
/// or unix seconds clamped to [1, kLatestDeadline].
uint32_t ResolveExptime(int64_t exptime, int64_t now);

/// Counted reference to an ItemBlock; the last one frees the block. The
/// pointer is kept in two 32-bit words, so an ItemRef is 8 bytes at 4-byte
/// alignment and an arena slot of {prev, next, hash, Item} packs into 20.
class ItemRef {
 public:
  ItemRef() = default;
  ItemRef(std::nullptr_t) {}  // so `hit ? item->data : nullptr` converts
  ItemRef(const ItemRef& other) : words_{other.words_[0], other.words_[1]} {
    if (ItemBlock* b = block(); b != nullptr) {
      b->refs.fetch_add(1);
    }
  }
  ItemRef(ItemRef&& other) noexcept
      : words_{other.words_[0], other.words_[1]} {
    other.set_block(nullptr);
  }
  ItemRef& operator=(ItemRef other) noexcept {
    std::swap(words_, other.words_);
    return *this;
  }
  ~ItemRef() { reset(); }

  /// A new block holding `key` and `value` (within kMaxKeyBytes and
  /// kMaxValueBytes), other header fields zeroed.
  static ItemRef Allocate(std::string_view key, std::string_view value);

  void reset() {
    if (ItemBlock* b = block(); b != nullptr && b->refs.fetch_sub(1) == 1) {
      std::free(b);
    }
    set_block(nullptr);
  }

  ItemBlock& operator*() const { return *block(); }
  ItemBlock* operator->() const { return block(); }
  explicit operator bool() const { return block() != nullptr; }

 private:
  ItemBlock* block() const {
    ItemBlock* b = nullptr;
    std::memcpy(&b, words_, sizeof(b));
    return b;
  }
  void set_block(ItemBlock* b) { std::memcpy(words_, &b, sizeof(b)); }

  uint32_t words_[2] = {0, 0};  // the block pointer's bytes
};

static_assert(sizeof(ItemBlock*) == sizeof(uint32_t[2]),
              "ItemRef keeps a 64-bit pointer in two words");

/// What a store slot holds besides its key: the item's block.
struct Item {
  ItemRef data;
};

static_assert(sizeof(Item) == 8 && alignof(Item) == 4,
              "an Item packs after the slot's three 32-bit words");

/// The bytes an item of these lengths is charged against the capacity: key
/// + value + a fixed 64 bytes of bookkeeping, memcached's per-item overhead
/// in spirit.
constexpr size_t ItemCharge(size_t key_len, size_t value_len) {
  return key_len + value_len + 64;
}

/// The arena's key type, in 8 bytes. The arena stores none: a slot's key
/// is derived from its item (ItemKeyOf) and points at the item's block,
/// reading the key bytes there. A lookup converts the caller's string_view
/// into a SlotKey that points at that string_view, tagged in bit 0 (both
/// pointers are 8-aligned); it lives only for the store call.
class SlotKey {
 public:
  SlotKey() = default;
  explicit SlotKey(const ItemBlock* block)
      : bits_(reinterpret_cast<uintptr_t>(block)) {}
  // Implicit, so lookups pass their string_view keys unchanged.
  SlotKey(const std::string_view& key)
      : bits_(reinterpret_cast<uintptr_t>(&key) | 1) {}

  std::string_view view() const {
    return (bits_ & 1) != 0
               ? *reinterpret_cast<const std::string_view*>(bits_ - 1)
               : reinterpret_cast<const ItemBlock*>(bits_)->key();
  }
  bool operator==(const SlotKey& other) const {
    return view() == other.view();
  }

 private:
  uintptr_t bits_ = 0;
};

static_assert(alignof(ItemBlock) > 1 && alignof(std::string_view) > 1,
              "SlotKey tags bit 0 of these pointers");

struct SlotKeyHash {
  size_t operator()(const SlotKey& key) const {
    return std::hash<std::string_view>{}(key.view());
  }
};

/// A slot's key and charge: the ones its item's block holds.
struct ItemKeyOf {
  SlotKey operator()(const Item& item) const { return SlotKey(&*item.data); }
  static size_t Charge(const Item& item) {
    return ItemCharge(item.data->key_len(), item.data->value_len());
  }
};

class ItemStore {
 public:
  /// The storage verbs: set stores unconditionally, add only when no live
  /// item holds the key, replace only when one does.
  enum class Mode : uint8_t { kSet, kAdd, kReplace };

  explicit ItemStore(size_t capacity_bytes);
  // The arena's eviction hook points back at this store.
  ItemStore(const ItemStore&) = delete;
  ItemStore& operator=(const ItemStore&) = delete;

  /// Returns whether the item was stored (false: NOT_STORED). A key longer
  /// than kMaxKeyBytes or a value larger than kMaxValueBytes is refused: the
  /// block header has no room for its length (the parser rejects both
  /// before a request gets here).
  bool Store(Mode mode, std::string_view key, uint32_t flags, int64_t exptime,
             std::string_view data, int64_t now);
  bool Set(std::string_view key, uint32_t flags, int64_t exptime,
           std::string_view data, int64_t now) {
    return Store(Mode::kSet, key, flags, exptime, data, now);
  }

  /// Live item or nullptr; promotes the item to MRU on hit. The pointer
  /// points into the arena, so it is valid only until the next mutating call
  /// (including another Get, which may reap an expired item and move the
  /// arena's last slot into its hole); copy `data` to keep the block.
  const Item* Get(std::string_view key, int64_t now);
  bool Delete(std::string_view key, int64_t now);
  bool Touch(std::string_view key, int64_t exptime, int64_t now);
  /// Marks all currently stored items dead once `now + delay_s` passes.
  void FlushAll(int64_t now, int64_t delay_s);

  /// Draws cas values from a shared atomic sequence instead of the private
  /// counter, so cas stays unique across the stripes of a StripedStore
  /// (and, for a sequential client, identical to the one-stripe numbering).
  /// Null (the default) keeps the private counter.
  void set_shared_cas(std::atomic<uint64_t>* seq) { shared_cas_ = seq; }

  size_t item_count() const { return lru_.size(); }
  size_t bytes_used() const { return lru_.bytes_used(); }
  size_t capacity_bytes() const { return lru_.capacity_bytes(); }
  uint64_t evictions() const { return evictions_; }
  uint64_t expired_reaped() const { return expired_reaped_; }
  /// Heap held by the arena's slots and hash table; the item blocks are
  /// separate (bytes_used() charges them).
  size_t index_bytes() const { return lru_.index_bytes(); }

 private:
  /// Counts each LRU victim as an eviction (live) or a reap (dead).
  struct VictimCounter {
    ItemStore* store = nullptr;
    template <typename Entry>
    void operator()(const Entry& victim) const {
      ++(store->IsLive(*victim.value.data, store->op_now_)
             ? store->evictions_
             : store->expired_reaped_);
    }
  };

  bool IsLive(const ItemBlock& item, int64_t now) const;

  uint64_t NextCas() {
    return shared_cas_ != nullptr
               ? shared_cas_->fetch_add(1, std::memory_order_relaxed) + 1
               : next_cas_++;
  }

  uint64_t next_cas_ = 1;
  std::atomic<uint64_t>* shared_cas_ = nullptr;
  int64_t flushed_before_ = -1;    // stored before this point: dead
  int64_t flush_pending_at_ = -1;  // a delayed flush_all's point; <0: none
  int64_t op_now_ = 0;             // clock of the store in progress
  uint64_t evictions_ = 0;
  uint64_t expired_reaped_ = 0;
  LruCache<SlotKey, Item, SlotKeyHash, VictimCounter, ItemKeyOf> lru_;
  static_assert(decltype(lru_)::kSlotBytes == 20,
                "slot = prev + next + hash + ItemRef, unpadded");
};

}  // namespace spotcache::net
