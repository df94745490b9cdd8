// Heap high-water guard for LruCache's growth rehash.
//
// The bucket table is rebuilt from the LRU list, never from the old table,
// so a rehash frees the old table before it allocates the new one. During
// the insert that grows the table, the high-water of outstanding heap bytes
// must then stay within one old table of the footprint the insert ends at:
// holding both tables at once would put it a whole old table above.
//
// The binary replaces the global operator new and delete to count
// outstanding bytes (by malloc_usable_size, so a free subtracts exactly what
// its allocation added) and to remember the largest single allocation.

#include <malloc.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/cache/lru_cache.h"

namespace {
size_t g_outstanding = 0;
size_t g_peak = 0;
size_t g_largest = 0;
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_outstanding += malloc_usable_size(p);
  g_peak = std::max(g_peak, g_outstanding);
  g_largest = std::max(g_largest, size);
  return p;
}
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_outstanding -= malloc_usable_size(p);
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace spotcache {
namespace {

TEST(LruRehashPeak, GrowthNeverHoldsOldAndNewTables) {
  LruCache<uint64_t, uint64_t> cache(size_t{1} << 30);
  // Growths whose new table is at least this big are checked; smaller ones
  // drown in the arena's own segment allocations.
  constexpr size_t kCheckedTableBytes = 64 << 10;
  int growths = 0;
  for (uint64_t k = 0; growths < 4; ++k) {
    g_peak = g_outstanding;
    g_largest = 0;
    ASSERT_TRUE(cache.Put(k, k, 1));
    if (g_largest < kCheckedTableBytes) {
      continue;
    }
    // The largest allocation of this insert is the doubled table.
    const size_t old_table_bytes = g_largest / 2;
    EXPECT_LT(g_peak - g_outstanding, old_table_bytes)
        << "growth to " << g_largest / sizeof(uint32_t) << " buckets at "
        << cache.size() << " items";
    ++growths;
  }
  EXPECT_EQ(growths, 4);
}

}  // namespace
}  // namespace spotcache
