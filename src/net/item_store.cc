#include "src/net/item_store.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace spotcache::net {

namespace {

/// `t` in the range of a block's stored_at. The clamp is monotone, so an item
/// stored at or after a flush point stays at or after it once both clamp.
int64_t StoreTime(int64_t t) { return std::clamp<int64_t>(t, 0, UINT32_MAX); }

}  // namespace

uint32_t ResolveExptime(int64_t exptime, int64_t now) {
  if (exptime == 0) {
    return ItemBlock::kNever;
  }
  if (exptime < 0) {
    return ItemBlock::kDead;
  }
  const int64_t deadline =
      exptime <= kRelativeExpiryCutoff ? now + exptime : exptime;
  return static_cast<uint32_t>(
      std::clamp<int64_t>(deadline, 1, ItemBlock::kLatestDeadline));
}

ItemRef ItemRef::Allocate(std::string_view key, std::string_view value) {
  void* mem = std::malloc(sizeof(ItemBlock) + key.size() + value.size());
  if (mem == nullptr) {
    throw std::bad_alloc();
  }
  ItemBlock* block = new (mem) ItemBlock;
  block->lengths = static_cast<uint32_t>(
      key.size() | value.size() << ItemBlock::kKeyLenBits);
  ItemRef ref;
  ref.set_block(block);
  char* bytes = static_cast<char*>(mem) + sizeof(ItemBlock);
  std::memcpy(bytes, key.data(), key.size());
  std::memcpy(bytes + key.size(), value.data(), value.size());
  return ref;
}

ItemStore::ItemStore(size_t capacity_bytes) : lru_(capacity_bytes) {
  lru_.SetEvictionHook(VictimCounter{this});
}

bool ItemStore::IsLive(const ItemBlock& item, int64_t now) const {
  if (item.expires_at == ItemBlock::kDead ||
      (item.expires_at != ItemBlock::kNever &&
       int64_t{item.expires_at} <= now)) {
    return false;
  }
  int64_t flushed_before = flushed_before_;
  if (flush_pending_at_ >= 0 && now >= flush_pending_at_) {
    flushed_before = std::max(flushed_before, flush_pending_at_);
  }
  return int64_t{item.stored_at} >= flushed_before;
}

bool ItemStore::Store(Mode mode, std::string_view key, uint32_t flags,
                      int64_t exptime, std::string_view data, int64_t now) {
  if (mode != Mode::kSet) {
    const Item* old = lru_.Peek(key);
    const bool live = old != nullptr && IsLive(*old->data, now);
    if (live != (mode == Mode::kReplace)) {
      return false;  // add over a live item, or replace with none
    }
  }
  const size_t cost = ItemCharge(key.size(), data.size());
  if (cost > lru_.capacity_bytes() || key.size() > kMaxKeyBytes ||
      data.size() > kMaxValueBytes) {
    return false;
  }
  Item item{ItemRef::Allocate(key, data)};
  ItemBlock& block = *item.data;
  block.flags = flags;
  block.expires_at = ResolveExptime(exptime, now);
  block.stored_at = static_cast<uint32_t>(StoreTime(now));
  block.cas = NextCas();
  op_now_ = now;
  // An overwrite keeps the slot; its key now reads the new block.
  lru_.Put(SlotKey(&block), std::move(item), cost);
  return true;
}

const Item* ItemStore::Get(std::string_view key, int64_t now) {
  const Item* item = lru_.Lookup(key);  // promotes to MRU
  if (item == nullptr) {
    return nullptr;
  }
  if (!IsLive(*item->data, now)) {
    ++expired_reaped_;
    lru_.Erase(key);
    return nullptr;
  }
  return item;
}

bool ItemStore::Delete(std::string_view key, int64_t now) {
  const Item* item = lru_.Peek(key);
  if (item == nullptr) {
    return false;
  }
  const bool live = IsLive(*item->data, now);
  lru_.Erase(key);
  return live;
}

bool ItemStore::Touch(std::string_view key, int64_t exptime, int64_t now) {
  const Item* item = lru_.Peek(key);
  if (item == nullptr || !IsLive(*item->data, now)) {
    return false;
  }
  item->data->expires_at = ResolveExptime(exptime, now);
  return true;
}

void ItemStore::FlushAll(int64_t now, int64_t delay_s) {
  // A pending point that has passed stays in force: a later flush_all only
  // replaces a point that is still pending. Items stored at exactly a flush
  // point stay visible (memcached's "new sets after flush_all take effect").
  // Points are clamped like stored_at, so a point past the horizon still
  // hides only what was stored before it.
  if (flush_pending_at_ >= 0 && now >= flush_pending_at_) {
    flushed_before_ = std::max(flushed_before_, flush_pending_at_);
  }
  flush_pending_at_ = -1;
  if (delay_s > 0) {
    flush_pending_at_ = StoreTime(now + delay_s);
  } else {
    flushed_before_ = std::max(flushed_before_, StoreTime(now));
  }
}

}  // namespace spotcache::net
