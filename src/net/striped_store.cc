#include "src/net/striped_store.h"

#include <algorithm>

namespace spotcache::net {

StripedStore::StripedStore(size_t capacity_bytes, uint32_t stripes) {
  stripes = std::max<uint32_t>(stripes, 1);
  const size_t share = capacity_bytes / stripes;
  const size_t extra = capacity_bytes % stripes;
  stripes_.reserve(stripes);
  for (uint32_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(share + (i < extra ? 1 : 0)));
    if (stripes > 1) {
      stripes_.back()->store.set_shared_cas(&cas_);
    }
  }
}

bool StripedStore::Store(ItemStore::Mode mode, std::string_view key,
                         uint32_t flags, int64_t exptime,
                         std::string_view data, int64_t now) {
  return WithStripe(key, [&](ItemStore& s) {
    return s.Store(mode, key, flags, exptime, data, now);
  });
}

ItemRef StripedStore::Get(std::string_view key, int64_t now) {
  return WithStripe(key, [&](ItemStore& s) -> ItemRef {
    // Copy the ref before unlocking: `item` points into the stripe's arena.
    const Item* item = s.Get(key, now);
    return item != nullptr ? item->data : nullptr;
  });
}

bool StripedStore::Delete(std::string_view key, int64_t now) {
  return WithStripe(key, [&](ItemStore& s) { return s.Delete(key, now); });
}

bool StripedStore::Touch(std::string_view key, int64_t exptime, int64_t now) {
  return WithStripe(key,
                    [&](ItemStore& s) { return s.Touch(key, exptime, now); });
}

void StripedStore::FlushAll(int64_t now, int64_t delay_s) {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->store.FlushAll(now, delay_s);
  }
}

StripedStore::Totals StripedStore::totals() const {
  Totals t;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    const ItemStore& s = stripe->store;
    t.items += s.item_count();
    t.bytes_used += s.bytes_used();
    t.capacity_bytes += s.capacity_bytes();
    t.evictions += s.evictions();
    t.expired_reaped += s.expired_reaped();
    t.index_bytes += s.index_bytes();
  }
  return t;
}

}  // namespace spotcache::net
