#include "src/net/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstring>

namespace spotcache::net {

namespace {

/// Returns the next space-delimited token starting at `*pos`, advancing
/// `*pos` past it. Runs of spaces are skipped. Empty view when exhausted.
std::string_view NextToken(std::string_view line, size_t* pos) {
  size_t i = *pos;
  while (i < line.size() && line[i] == ' ') {
    ++i;
  }
  const size_t start = i;
  while (i < line.size() && line[i] != ' ') {
    ++i;
  }
  *pos = i;
  return line.substr(start, i - start);
}

bool ValidKey(std::string_view key) {
  if (key.empty() || key.size() > kMaxKeyBytes) {
    return false;
  }
  for (char c : key) {
    const auto u = static_cast<unsigned char>(c);
    if (u <= 32 || u == 127) {
      return false;
    }
  }
  return true;
}

template <typename Int>
bool ParseInt(std::string_view tok, Int* out) {
  if (tok.empty()) {
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), *out);
  return ec == std::errc() && ptr == tok.data() + tok.size();
}

}  // namespace

std::string_view ToString(Verb v) {
  switch (v) {
    case Verb::kGet: return "get";
    case Verb::kGets: return "gets";
    case Verb::kSet: return "set";
    case Verb::kAdd: return "add";
    case Verb::kReplace: return "replace";
    case Verb::kDelete: return "delete";
    case Verb::kTouch: return "touch";
    case Verb::kStats: return "stats";
    case Verb::kVersion: return "version";
    case Verb::kFlushAll: return "flush_all";
    case Verb::kQuit: return "quit";
  }
  return "?";
}

std::string_view ErrorReply(ParseErrorKind kind) {
  switch (kind) {
    case ParseErrorKind::kUnknownCommand:
      return "ERROR\r\n";
    case ParseErrorKind::kBadCommandLine:
    case ParseErrorKind::kLineTooLong:
      return "CLIENT_ERROR bad command line format\r\n";
    case ParseErrorKind::kBadDataChunk:
      return "CLIENT_ERROR bad data chunk\r\n";
    case ParseErrorKind::kObjectTooLarge:
      return "SERVER_ERROR object too large for cache\r\n";
  }
  return "SERVER_ERROR internal\r\n";
}

std::string_view ToString(ParseErrorKind kind) {
  switch (kind) {
    case ParseErrorKind::kUnknownCommand: return "unknown_command";
    case ParseErrorKind::kBadCommandLine: return "bad_command_line";
    case ParseErrorKind::kBadDataChunk: return "bad_data_chunk";
    case ParseErrorKind::kObjectTooLarge: return "object_too_large";
    case ParseErrorKind::kLineTooLong: return "line_too_long";
  }
  return "?";
}

void RequestParser::Rehome(size_t capacity) {
  const size_t live = end_ - pos_;
  std::unique_ptr<char[]> next(capacity > 0 ? new char[capacity] : nullptr);
  if (live > 0) {
    std::memcpy(next.get(), base_ + pos_, live);
  }
  own_ = std::move(next);
  own_cap_ = capacity;
  base_ = own_.get();
  pos_ = 0;
  end_ = live;
}

char* RequestParser::Reserve(size_t want) {
  const size_t live = end_ - pos_;
  if (borrowed() || own_cap_ - end_ < want) {
    // Slide the live bytes down when that frees enough room and they fill
    // at most half the buffer (so the copy stays amortized O(1) per byte);
    // otherwise regrow geometrically.
    if (!borrowed() && live + want <= own_cap_ && 2 * live <= own_cap_) {
      std::memmove(own_.get(), own_.get() + pos_, live);
      pos_ = 0;
      end_ = live;
    } else {
      Rehome(std::max(live + want, 2 * own_cap_));
    }
  }
  return base_ + end_;
}

std::span<char> RequestParser::Borrow(char* scratch, size_t cap) {
  const size_t live = end_ - pos_;
  const size_t need = pending_bytes_ + 2;
  if (state_ == State::kData && need > cap && need > live) {
    // The rest of a payload larger than the scratch region goes straight
    // into a buffer of its own size.
    if (borrowed() || pos_ != 0 || own_cap_ != need) {
      Rehome(need);
    }
    return {base_ + end_, need - end_};
  }
  if (borrowed() || live >= cap) {
    // A tail that fills the scratch region (a paused connection's backlog,
    // or a tiny `cap`) keeps growing in the own buffer.
    return {Reserve(cap), cap};
  }
  if (live > 0) {
    std::memcpy(scratch, base_ + pos_, live);
  }
  own_.reset();
  own_cap_ = 0;
  base_ = scratch;
  pos_ = 0;
  end_ = live;
  return {scratch + live, cap - live};
}

void RequestParser::Commit(size_t produced) { end_ += produced; }

void RequestParser::Release() {
  const size_t live = end_ - pos_;
  if (!borrowed() && pos_ == 0 &&
      (own_cap_ == live ||
       (state_ == State::kData && own_cap_ == pending_bytes_ + 2))) {
    return;  // already exactly the tail, or a payload read in place
  }
  Rehome(live);
}

void RequestParser::Feed(std::string_view bytes) {
  if (bytes.empty()) {
    return;
  }
  std::memcpy(Reserve(bytes.size()), bytes.data(), bytes.size());
  Commit(bytes.size());
}

ParseStatus RequestParser::EmitError(ParseErrorKind kind, bool noreply) {
  error_ = kind;
  error_noreply_ = noreply;
  state_ = State::kCommand;
  return ParseStatus::kError;
}

ParseStatus RequestParser::Next() {
  for (;;) {
    switch (state_) {
      case State::kCommand: {
        if (pos_ == end_) {
          return ParseStatus::kNeedMore;
        }
        const char* base = base_;
        const void* nl = std::memchr(base + pos_, '\n', end_ - pos_);
        if (nl == nullptr) {
          if (end_ - pos_ > kMaxCommandLineBytes) {
            // The line already exceeds the cap: discard as it streams in and
            // report once the terminator shows up.
            state_ = State::kSwallowLine;
            continue;
          }
          return ParseStatus::kNeedMore;
        }
        const size_t nl_off = static_cast<size_t>(
            static_cast<const char*>(nl) - base);
        std::string_view line(base + pos_, nl_off - pos_);
        if (!line.empty() && line.back() == '\r') {
          line.remove_suffix(1);
        }
        pos_ = nl_off + 1;
        if (line.size() > kMaxCommandLineBytes) {
          return EmitError(ParseErrorKind::kLineTooLong);
        }
        const ParseStatus st = ParseCommandLine(line);
        if (st == ParseStatus::kNeedMore) {
          continue;  // storage header parsed; try for the payload
        }
        return st;
      }

      case State::kData: {
        const size_t need = pending_bytes_ + 2;
        if (end_ - pos_ < need) {
          return ParseStatus::kNeedMore;
        }
        const char* base = base_ + pos_;
        const bool terminated =
            base[pending_bytes_] == '\r' && base[pending_bytes_ + 1] == '\n';
        std::string_view data(base, pending_bytes_);
        pos_ += need;
        state_ = State::kCommand;
        if (!terminated) {
          // The client lied about <bytes>; the declared count has been
          // consumed, so the stream is already resynced.
          return EmitError(ParseErrorKind::kBadDataChunk, pending_noreply_);
        }
        keys_.clear();
        keys_.push_back(std::string_view(pending_key_, pending_key_len_));
        request_ = TextRequest{};
        request_.verb = pending_verb_;
        request_.keys = {keys_.data(), keys_.size()};
        request_.flags = pending_flags_;
        request_.exptime = pending_exptime_;
        request_.data = data;
        request_.noreply = pending_noreply_;
        return ParseStatus::kRequest;
      }

      case State::kSwallowData: {
        const size_t take = std::min(end_ - pos_, swallow_remaining_);
        pos_ += take;
        swallow_remaining_ -= take;
        if (swallow_remaining_ > 0) {
          return ParseStatus::kNeedMore;
        }
        state_ = State::kCommand;
        return EmitError(ParseErrorKind::kObjectTooLarge, pending_noreply_);
      }

      case State::kSwallowLine: {
        if (pos_ == end_) {
          return ParseStatus::kNeedMore;
        }
        const char* base = base_;
        const void* nl = std::memchr(base + pos_, '\n', end_ - pos_);
        if (nl == nullptr) {
          pos_ = end_;  // everything so far belongs to the doomed line
          return ParseStatus::kNeedMore;
        }
        pos_ = static_cast<size_t>(static_cast<const char*>(nl) - base) + 1;
        state_ = State::kCommand;
        return EmitError(ParseErrorKind::kLineTooLong);
      }
    }
  }
}

ParseStatus RequestParser::ParseCommandLine(std::string_view line) {
  size_t cursor = 0;
  const std::string_view verb_tok = NextToken(line, &cursor);
  if (verb_tok.empty()) {
    return EmitError(ParseErrorKind::kUnknownCommand);
  }

  // Collect the remaining tokens. Retrieval keys go straight into the reused
  // keys_ vector; everything else has at most 4 arguments.
  const auto collect_args = [&](std::span<std::string_view> out) -> size_t {
    size_t n = 0;
    for (;;) {
      const std::string_view tok = NextToken(line, &cursor);
      if (tok.empty()) {
        return n;
      }
      if (n == out.size()) {
        return n + 1;  // overflow marker: too many arguments
      }
      out[n++] = tok;
    }
  };

  request_ = TextRequest{};

  if (verb_tok == "get" || verb_tok == "gets") {
    keys_.clear();
    for (;;) {
      const std::string_view tok = NextToken(line, &cursor);
      if (tok.empty()) {
        break;
      }
      if (!ValidKey(tok)) {
        return EmitError(ParseErrorKind::kBadCommandLine);
      }
      keys_.push_back(tok);
    }
    if (keys_.empty()) {
      return EmitError(ParseErrorKind::kUnknownCommand);
    }
    request_.verb = verb_tok == "get" ? Verb::kGet : Verb::kGets;
    request_.keys = {keys_.data(), keys_.size()};
    return ParseStatus::kRequest;
  }

  if (verb_tok == "set" || verb_tok == "add" || verb_tok == "replace") {
    const Verb verb = verb_tok == "set"   ? Verb::kSet
                      : verb_tok == "add" ? Verb::kAdd
                                          : Verb::kReplace;
    std::string_view args[5];
    const size_t n = collect_args(args);
    return ParseStorage(verb, std::span<const std::string_view>(args, n));
  }

  if (verb_tok == "delete") {
    std::string_view args[2];
    const size_t n = collect_args(args);
    if (n < 1 || n > 2 || !ValidKey(args[0]) ||
        (n == 2 && args[1] != "noreply")) {
      return EmitError(ParseErrorKind::kBadCommandLine);
    }
    keys_.clear();
    keys_.push_back(args[0]);
    request_.verb = Verb::kDelete;
    request_.keys = {keys_.data(), keys_.size()};
    request_.noreply = n == 2;
    return ParseStatus::kRequest;
  }

  if (verb_tok == "touch") {
    std::string_view args[3];
    const size_t n = collect_args(args);
    int64_t exptime = 0;
    if (n < 2 || n > 3 || !ValidKey(args[0]) || !ParseInt(args[1], &exptime) ||
        (n == 3 && args[2] != "noreply")) {
      return EmitError(ParseErrorKind::kBadCommandLine);
    }
    keys_.clear();
    keys_.push_back(args[0]);
    request_.verb = Verb::kTouch;
    request_.keys = {keys_.data(), keys_.size()};
    request_.exptime = exptime;
    request_.noreply = n == 3;
    return ParseStatus::kRequest;
  }

  if (verb_tok == "stats") {
    request_.verb = Verb::kStats;
    // First sub-command token, if any ("spotcache" selects the telemetry
    // extension; unknown sub-commands are accepted and ignored).
    request_.stats_arg = NextToken(line, &cursor);
    return ParseStatus::kRequest;
  }

  if (verb_tok == "version") {
    request_.verb = Verb::kVersion;
    return ParseStatus::kRequest;
  }

  if (verb_tok == "flush_all") {
    std::string_view args[2];
    const size_t n = collect_args(args);
    int64_t delay = 0;
    size_t consumed = 0;
    if (n >= 1 && ParseInt(args[0], &delay)) {
      consumed = 1;
    } else {
      delay = 0;
    }
    bool noreply = false;
    if (consumed < n) {
      if (args[consumed] != "noreply" || consumed + 1 != n) {
        return EmitError(ParseErrorKind::kBadCommandLine);
      }
      noreply = true;
    }
    if (delay < 0) {
      return EmitError(ParseErrorKind::kBadCommandLine);
    }
    request_.verb = Verb::kFlushAll;
    request_.delay_s = delay;
    request_.noreply = noreply;
    return ParseStatus::kRequest;
  }

  if (verb_tok == "quit") {
    request_.verb = Verb::kQuit;
    return ParseStatus::kRequest;
  }

  return EmitError(ParseErrorKind::kUnknownCommand);
}

ParseStatus RequestParser::ParseStorage(Verb verb,
                                        std::span<const std::string_view> args) {
  uint64_t flags = 0;
  int64_t exptime = 0;
  int64_t bytes = 0;
  if (args.size() < 4 || args.size() > 5 || !ValidKey(args[0]) ||
      !ParseInt(args[1], &flags) || flags > 0xffffffffULL ||
      !ParseInt(args[2], &exptime) || !ParseInt(args[3], &bytes) || bytes < 0 ||
      (args.size() == 5 && args[4] != "noreply")) {
    return EmitError(ParseErrorKind::kBadCommandLine);
  }
  pending_verb_ = verb;
  std::memcpy(pending_key_, args[0].data(), args[0].size());
  pending_key_len_ = args[0].size();
  pending_flags_ = static_cast<uint32_t>(flags);
  pending_exptime_ = exptime;
  pending_bytes_ = static_cast<size_t>(bytes);
  pending_noreply_ = args.size() == 5;
  if (pending_bytes_ > kMaxValueBytes) {
    // Streamed discard: the payload never has to fit in the buffer.
    swallow_remaining_ = pending_bytes_ + 2;
    state_ = State::kSwallowData;
  } else {
    state_ = State::kData;
  }
  return ParseStatus::kNeedMore;
}

}  // namespace spotcache::net
