// Process-wide malloc heap figures, for explaining RSS next to a store's own
// accounting.
//
// Reading them walks the allocator's free lists under its arena locks, so
// call this on a stats request or a metrics scrape, never per request. The
// figures describe the whole process: sharded servers report them once, not
// once per shard.

#pragma once

#include <cstddef>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace spotcache {

struct HeapStats {
  size_t in_use = 0;      // bytes in allocated heap chunks
  size_t free_held = 0;   // free bytes the heap keeps instead of returning
  size_t mmapped = 0;     // bytes in chunks served by their own mmap
};

/// Current heap figures; all zero where the allocator cannot report them.
inline HeapStats ReadHeapStats() {
  HeapStats out;
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  out.in_use = mi.uordblks;
  out.free_held = mi.fordblks;
  out.mmapped = mi.hblkhd;
#endif
  return out;
}

}  // namespace spotcache
