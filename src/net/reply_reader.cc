#include "src/net/reply_reader.h"

#include <algorithm>
#include <charconv>

#include "src/net/protocol.h"

namespace spotcache::net {

namespace {

/// Longer than any well-formed reply line (a VALUE header holds a key of at
/// most 250 bytes).
constexpr size_t kMaxLineBytes = 4096;

bool StartsWith(std::string_view line, std::string_view prefix) {
  return line.substr(0, prefix.size()) == prefix;
}

bool IsErrorLine(std::string_view line) {
  return line == "ERROR" || line == "CLIENT_ERROR" ||
         line == "SERVER_ERROR" || StartsWith(line, "CLIENT_ERROR ") ||
         StartsWith(line, "SERVER_ERROR ");
}

template <typename Int>
bool ParseUint(std::string_view token, Int* out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return !token.empty() && ec == std::errc() &&
         ptr == token.data() + token.size();
}

/// Splits `line` on spaces into at most `max` tokens. Returns the count, or
/// max + 1 when the line holds more.
size_t Split(std::string_view line, std::string_view* tokens, size_t max) {
  size_t count = 0;
  size_t at = 0;
  while (at < line.size()) {
    const size_t space = line.find(' ', at);
    const size_t end = space == std::string_view::npos ? line.size() : space;
    if (end > at) {
      if (count == max) {
        return max + 1;
      }
      tokens[count++] = line.substr(at, end - at);
    }
    at = end + 1;
  }
  return count;
}

/// Adapts a disposition-only Sink to the Handler interface.
class SinkHandler final : public ReplyReader::Handler {
 public:
  explicit SinkHandler(const ReplyReader::Sink& sink) : sink_(sink) {}
  bool OnReply(ReplyReader::Status status, std::string_view) override {
    sink_(status);
    return true;
  }

 private:
  const ReplyReader::Sink& sink_;
};

}  // namespace

bool ReplyReader::ConsumeValueHeader(std::string_view line) {
  // "VALUE <key> <flags> <bytes> [<cas>]", nothing more.
  std::string_view tokens[5];
  const size_t count = Split(line, tokens, 5);
  uint64_t bytes = 0;
  uint64_t cas = 0;
  if (count < 4 || count > 5 || !ParseUint(tokens[2], &value_flags_) ||
      !ParseUint(tokens[3], &bytes) || bytes > kMaxValueBytes ||
      (count == 5 && !ParseUint(tokens[4], &cas))) {
    return false;
  }
  value_key_.assign(tokens[1]);
  value_cas_ = cas;
  value_data_.clear();
  payload_due_ = bytes + 2;  // payload + CRLF
  return true;
}

size_t ReplyReader::ConsumePayload(std::string_view bytes, Handler* handler) {
  const size_t n = std::min(payload_due_, bytes.size());
  std::string_view block;
  if (value_data_.empty() && n == payload_due_) {
    block = bytes.substr(0, n);  // the whole block is in this chunk
  } else {
    value_data_.append(bytes.data(), n);
    if (n < payload_due_) {
      payload_due_ -= n;
      return n;
    }
    block = value_data_;
  }
  payload_due_ = 0;
  if (block.substr(block.size() - 2) != "\r\n") {
    return std::string_view::npos;  // torn VALUE block
  }
  handler->OnValue(Value{value_key_, value_flags_, value_cas_,
                         block.substr(0, block.size() - 2)});
  value_data_.clear();
  return n;
}

bool ReplyReader::Complete(Status status, std::string_view line,
                           Handler* handler) {
  pending_.pop_front();
  saw_value_ = false;
  return handler->OnReply(status, line);
}

bool ReplyReader::ConsumeLine(std::string_view line, Handler* handler) {
  if (pending_.empty()) {
    return false;  // response bytes with nothing outstanding
  }
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  if (IsErrorLine(line)) {
    return Complete(Status::kError, line, handler);
  }
  switch (pending_.front()) {
    case Expect::kRetrieval:
      if (StartsWith(line, "VALUE ")) {
        saw_value_ = true;
        return ConsumeValueHeader(line);
      }
      return line == "END" &&
             Complete(saw_value_ ? Status::kHit : Status::kMiss, line,
                      handler);
    case Expect::kStats:
      if (StartsWith(line, "STAT ")) {
        std::string_view tokens[3];
        if (Split(line, tokens, 3) != 3) {
          return false;
        }
        handler->OnStat(tokens[1], tokens[2]);
        return true;
      }
      return line == "END" && Complete(Status::kHit, line, handler);
    case Expect::kLine:
      if (line == "STORED" || line == "DELETED" || line == "TOUCHED" ||
          line == "OK") {
        return Complete(Status::kHit, line, handler);
      }
      if (line == "NOT_STORED" || line == "NOT_FOUND" || line == "EXISTS") {
        return Complete(Status::kMiss, line, handler);
      }
      return false;
  }
  return false;
}

bool ReplyReader::Feed(std::string_view bytes, Handler* handler) {
  while (!bytes.empty()) {
    if (payload_due_ > 0) {
      const size_t n = ConsumePayload(bytes, handler);
      if (n == std::string_view::npos) {
        return false;
      }
      bytes.remove_prefix(n);
      continue;
    }
    const size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) {
      if (partial_.size() + bytes.size() > kMaxLineBytes) {
        return false;  // longer than any reply line: never buffer it
      }
      partial_.append(bytes);
      return true;
    }
    bool ok;
    if (partial_.empty()) {
      ok = ConsumeLine(bytes.substr(0, nl), handler);
    } else {
      partial_.append(bytes.substr(0, nl));
      ok = ConsumeLine(partial_, handler);
      partial_.clear();
    }
    if (!ok) {
      return false;
    }
    bytes.remove_prefix(nl + 1);
  }
  return true;
}

bool ReplyReader::Feed(std::string_view bytes, const Sink& sink) {
  SinkHandler handler(sink);
  return Feed(bytes, &handler);
}

void ReplyReader::Reset() {
  pending_.clear();
  partial_.clear();
  payload_due_ = 0;
  saw_value_ = false;
  value_data_.clear();
}

}  // namespace spotcache::net
