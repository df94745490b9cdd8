// Scatter-gather response assembly for the serving path.
//
// A response is a sequence of iovecs: small generated fragments (VALUE
// headers, status lines) are formatted into a block-arena scratch space with
// stable addresses, while item payloads are referenced in place and pinned
// (a counted ItemRef to the item's block) so a batched writev stays valid
// even if a later request in the batch evicts, overwrites or deletes the
// item. Adjacent scratch fragments coalesce into one iovec, so a typical
// "VALUE...\r\n<data>\r\nEND\r\n" reply is 3 vectors.
//
// The assembler is reused across batches: Clear() drops the pins and rewinds
// the arena without freeing it, so steady-state assembly allocates nothing.
// A server reactor owns one and renders every connection's replies into it,
// flushing and clearing it before it turns to the next connection. Arena
// blocks are allocated without zero-filling.

#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/item_store.h"

namespace spotcache::net {

class ResponseAssembler {
 public:
  ResponseAssembler() = default;

  /// Copies `bytes` into the scratch arena (for headers and status lines).
  void Append(std::string_view bytes);
  /// printf into the scratch arena (single fragment; must fit one block).
  void Appendf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// References the item's value bytes in place, keeping its block alive
  /// until Clear().
  void AppendPinned(ItemRef item);

  const std::vector<iovec>& iovecs() const { return iov_; }
  size_t total_bytes() const { return total_; }
  bool empty() const { return total_ == 0; }
  /// Heap the scratch arena holds (its blocks are kept across Clear()).
  size_t arena_bytes() const { return blocks_.size() * kBlockBytes; }

  /// Flattens to one string (tests, and the copy-out path after a short
  /// write).
  std::string Flatten() const;

  /// Releases pins and rewinds the arena; capacity is retained.
  void Clear();

 private:
  static constexpr size_t kBlockBytes = 16 * 1024;

  char* Reserve(size_t n);
  void PushIov(const char* base, size_t len, bool coalescable);

  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_ = 0;     // arena block in use
  size_t offset_ = 0;    // write offset inside that block
  std::vector<iovec> iov_;
  bool last_coalescable_ = false;
  size_t total_ = 0;
  std::vector<ItemRef> pins_;
};

}  // namespace spotcache::net
