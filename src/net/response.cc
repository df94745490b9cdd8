#include "src/net/response.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace spotcache::net {

char* ResponseAssembler::Reserve(size_t n) {
  if (blocks_.empty()) {
    blocks_.emplace_back(new char[kBlockBytes]);
  }
  if (offset_ + n > kBlockBytes) {
    ++block_;
    offset_ = 0;
    if (block_ == blocks_.size()) {
      blocks_.emplace_back(new char[kBlockBytes]);
    }
  }
  return blocks_[block_].get() + offset_;
}

void ResponseAssembler::PushIov(const char* base, size_t len,
                                bool coalescable) {
  if (len == 0) {
    return;
  }
  if (coalescable && last_coalescable_ && !iov_.empty()) {
    iovec& back = iov_.back();
    if (static_cast<const char*>(back.iov_base) + back.iov_len == base) {
      back.iov_len += len;
      total_ += len;
      return;
    }
  }
  iov_.push_back({const_cast<char*>(base), len});
  last_coalescable_ = coalescable;
  total_ += len;
}

void ResponseAssembler::Append(std::string_view bytes) {
  // Oversized fragments (never expected for protocol text) split cleanly
  // across blocks.
  while (!bytes.empty()) {
    const size_t take = std::min(bytes.size(), kBlockBytes);
    char* dst = Reserve(take);
    std::memcpy(dst, bytes.data(), take);
    offset_ += take;
    PushIov(dst, take, /*coalescable=*/true);
    bytes.remove_prefix(take);
  }
}

void ResponseAssembler::Appendf(const char* fmt, ...) {
  char* dst = Reserve(512);
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(dst, 512, fmt, ap);
  va_end(ap);
  if (n <= 0) {
    return;
  }
  offset_ += static_cast<size_t>(n);
  PushIov(dst, static_cast<size_t>(n), /*coalescable=*/true);
}

void ResponseAssembler::AppendPinned(ItemRef item) {
  const std::string_view bytes = item->value();
  pins_.push_back(std::move(item));
  PushIov(bytes.data(), bytes.size(), /*coalescable=*/false);
  last_coalescable_ = false;
}

std::string ResponseAssembler::Flatten() const {
  std::string out;
  out.reserve(total_);
  for (const iovec& v : iov_) {
    out.append(static_cast<const char*>(v.iov_base), v.iov_len);
  }
  return out;
}

void ResponseAssembler::Clear() {
  iov_.clear();
  pins_.clear();
  block_ = 0;
  offset_ = 0;
  total_ = 0;
  last_coalescable_ = false;
}

}  // namespace spotcache::net
