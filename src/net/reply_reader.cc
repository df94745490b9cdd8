#include "src/net/reply_reader.h"

#include <algorithm>
#include <charconv>

#include "src/net/protocol.h"

namespace spotcache::net {

namespace {

bool IsErrorLine(std::string_view line) {
  return line == "ERROR" || line.rfind("CLIENT_ERROR", 0) == 0 ||
         line.rfind("SERVER_ERROR", 0) == 0;
}

/// The complete reply vocabulary for status-line commands (storage /
/// delete / touch / flush_all). Error lines carry a free-form tail.
bool ValidStatusLine(std::string_view line) {
  return line == "STORED" || line == "NOT_STORED" || line == "EXISTS" ||
         line == "NOT_FOUND" || line == "DELETED" || line == "TOUCHED" ||
         line == "OK" || IsErrorLine(line);
}

bool ParseU64(std::string_view token, uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return !token.empty() && ec == std::errc() &&
         ptr == token.data() + token.size();
}

/// Parses the <bytes> field of "VALUE <key> <flags> <bytes> [<cas>]".
bool ValueBytes(std::string_view line, uint64_t* out) {
  // Fields are single-space separated; bytes is the 4th token.
  size_t pos = 0;
  for (int field = 0; field < 3; ++field) {
    pos = line.find(' ', pos);
    if (pos == std::string_view::npos) {
      return false;
    }
    ++pos;
  }
  size_t end = line.find(' ', pos);
  if (end == std::string_view::npos) {
    end = line.size();
  }
  return ParseU64(line.substr(pos, end - pos), out);
}

/// Adapts a disposition-only Sink to the Handler interface.
class SinkHandler final : public ReplyReader::Handler {
 public:
  explicit SinkHandler(const ReplyReader::Sink& sink) : sink_(sink) {}
  void OnReply(ReplyReader::Status status, std::string_view) override {
    sink_(status);
  }

 private:
  const ReplyReader::Sink& sink_;
};

}  // namespace

bool ReplyReader::ConsumeValueHeader(std::string_view line) {
  uint64_t bytes = 0;
  if (mode_ == Mode::kClassify) {
    if (!ValueBytes(line, &bytes)) {
      return false;
    }
    skip_bytes_ = bytes + 2;  // payload + CRLF
    return true;
  }
  // Strict: "VALUE <key> <flags> <bytes> [<cas>]", nothing more.
  std::string_view tokens[6];
  size_t count = 0;
  size_t at = 0;
  while (at < line.size()) {
    const size_t space = line.find(' ', at);
    const size_t end = space == std::string_view::npos ? line.size() : space;
    if (end > at) {
      if (count == 6) {
        return false;
      }
      tokens[count++] = line.substr(at, end - at);
    }
    at = end + 1;
  }
  uint64_t flags = 0;
  uint64_t cas = 0;
  if (count < 4 || count > 5 || !ParseU64(tokens[2], &flags) ||
      !ParseU64(tokens[3], &bytes) || bytes > kMaxValueBytes ||
      (count == 5 && !ParseU64(tokens[4], &cas))) {
    return false;
  }
  value_key_.assign(tokens[1]);
  value_flags_ = static_cast<uint32_t>(flags);
  value_cas_ = cas;
  value_data_.clear();
  skip_bytes_ = bytes + 2;
  return true;
}

size_t ReplyReader::ConsumePayload(std::string_view bytes, Handler* handler) {
  const size_t n = std::min(skip_bytes_, bytes.size());
  if (mode_ == Mode::kClassify) {
    skip_bytes_ -= n;
    return n;
  }
  std::string_view block;
  if (value_data_.empty() && n == skip_bytes_) {
    block = bytes.substr(0, n);  // the whole block is in this chunk
  } else {
    value_data_.append(bytes.data(), n);
    if (n < skip_bytes_) {
      skip_bytes_ -= n;
      return n;
    }
    block = value_data_;
  }
  skip_bytes_ = 0;
  if (block.substr(block.size() - 2) != "\r\n") {
    return std::string_view::npos;  // torn VALUE block
  }
  handler->OnValue(Value{value_key_, value_flags_, value_cas_,
                         block.substr(0, block.size() - 2)});
  value_data_.clear();
  return n;
}

bool ReplyReader::ConsumeLine(std::string_view line, Handler* handler) {
  if (pending_.empty()) {
    return false;  // response bytes with nothing outstanding
  }
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  const bool strict = mode_ == Mode::kStrict;
  if (pending_.front() == Expect::kRetrieval) {
    if (line.rfind("VALUE ", 0) == 0) {
      if (!ConsumeValueHeader(line)) {
        return false;
      }
      saw_value_ = true;
      return true;
    }
    Status status;
    if (line == "END") {
      status = saw_value_ ? Status::kHit : Status::kMiss;
    } else if (!strict && IsErrorLine(line)) {
      status = Status::kError;
    } else {
      return false;
    }
    pending_.pop_front();
    saw_value_ = false;
    handler->OnReply(status, line);
    return true;
  }
  // kLine: one status line completes the request.
  if (line.empty() || (strict && !ValidStatusLine(line))) {
    return false;
  }
  pending_.pop_front();
  Status status = Status::kHit;  // STORED / DELETED / TOUCHED / OK / ...
  if (IsErrorLine(line)) {
    status = Status::kError;
  } else if (line == "NOT_STORED" || line == "NOT_FOUND" ||
             line == "EXISTS") {
    status = Status::kMiss;
  }
  handler->OnReply(status, line);
  return true;
}

bool ReplyReader::Feed(std::string_view bytes, Handler* handler) {
  while (!bytes.empty()) {
    if (skip_bytes_ > 0) {
      const size_t n = ConsumePayload(bytes, handler);
      if (n == std::string_view::npos) {
        return false;
      }
      bytes.remove_prefix(n);
      continue;
    }
    const size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) {
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
  skip_bytes_ = 0;
  saw_value_ = false;
  value_data_.clear();
}

}  // namespace spotcache::net
