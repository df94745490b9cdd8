// The memcached text wire protocol: request model, incremental parser, and
// response assembler.
//
// The parser is the serving path's innermost loop, so it is built around two
// rules:
//
//   * Zero-copy, zero-allocation steady state. A server parses in place:
//     `Borrow` lends the parser a caller-owned scratch region (the reactor's
//     receive buffer), recv() writes into it, `Commit` publishes the bytes,
//     and every parsed token — keys, payload — is a string_view into it.
//     `Release` then copies only the unparsed tail into the parser's own
//     buffer, sized to that tail, so a connection with nothing pending holds
//     no parser heap. While a declared payload larger than the scratch
//     region is incomplete the parser's own buffer is sized to `<bytes>+2`
//     and `Borrow` hands out the rest of it, so a large value is read
//     straight into place. `Feed` is the copying path (tests, tools). The
//     key scratch vector is reused across requests, so after warm-up a
//     request parse performs no heap allocation.
//
//   * Deterministic and chunking-invariant. Parse decisions depend only on
//     the accumulated byte stream, never on where Feed() boundaries fell, so
//     any chunking of the same stream yields the same request/error sequence
//     (test_protocol_fuzz pins this property). No wall clock, no
//     locale-dependent parsing.
//
// Verbs covered (memcached 1.6 text protocol): get, gets, set, add, replace,
// delete, touch, stats, version, flush_all, quit, plus `noreply` and
// multi-key retrieval. Limits follow memcached: 250-byte keys, 1 MB values.
// Oversized values are swallowed in a streaming state (the buffer never has
// to hold them), then reported as SERVER_ERROR, exactly like memcached.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace spotcache::net {

/// memcached limits (1.6 defaults).
inline constexpr size_t kMaxKeyBytes = 250;
inline constexpr size_t kMaxValueBytes = 1024 * 1024;
/// Commands longer than this are rejected and the parser resyncs at the next
/// newline. Generous enough for multi-get bursts (~60 max-length keys).
inline constexpr size_t kMaxCommandLineBytes = 16 * 1024;

enum class Verb : uint8_t {
  kGet,
  kGets,
  kSet,
  kAdd,
  kReplace,
  kDelete,
  kTouch,
  kStats,
  kVersion,
  kFlushAll,
  kQuit,
};

std::string_view ToString(Verb v);

/// One parsed request. All views point into the parser's input and are valid
/// until the next Next(), Feed(), Borrow() or Release() call.
struct TextRequest {
  Verb verb = Verb::kGet;
  /// Retrieval: all requested keys. Storage/delete/touch: exactly one key.
  std::span<const std::string_view> keys;
  uint32_t flags = 0;
  /// Raw exptime token (storage, touch): 0 = never, negative = immediately
  /// expired, <= 30 days = relative seconds, else absolute unix seconds.
  int64_t exptime = 0;
  /// flush_all optional delay in seconds.
  int64_t delay_s = 0;
  /// stats sub-command ("" for plain `stats`; "spotcache" selects the
  /// server-telemetry extension; anything else is accepted and ignored).
  std::string_view stats_arg;
  /// Storage payload (exactly `bytes` from the wire, terminator stripped).
  std::string_view data;
  bool noreply = false;
};

/// Why a request could not be parsed. The server maps these onto the
/// protocol's error replies (ERROR / CLIENT_ERROR ... / SERVER_ERROR ...).
enum class ParseErrorKind : uint8_t {
  kUnknownCommand,   // "ERROR"
  kBadCommandLine,   // "CLIENT_ERROR bad command line format"
  kBadDataChunk,     // "CLIENT_ERROR bad data chunk"
  kObjectTooLarge,   // "SERVER_ERROR object too large for cache"
  kLineTooLong,      // "CLIENT_ERROR bad command line format" (resynced)
};

/// The full reply line (terminated) for an error of the given kind.
std::string_view ErrorReply(ParseErrorKind kind);

std::string_view ToString(ParseErrorKind kind);

enum class ParseStatus : uint8_t {
  kNeedMore,  // not enough bytes buffered for a full request
  kRequest,   // request() holds a complete request
  kError,     // error() holds the failure; the parser has already resynced
};

class RequestParser {
 public:
  // --- Input. ----------------------------------------------------------
  /// Appends bytes (copies into the parser's own buffer).
  void Feed(std::string_view bytes);
  /// In-place input: returns where the next bytes should land. While a
  /// declared payload larger than `cap` is incomplete that is the rest of
  /// it, in the parser's own buffer (sized to `<bytes>+2`). Otherwise it is
  /// `scratch` (`cap` bytes, caller-owned) after the held tail, which moves
  /// to its front and whose own copy is freed; a tail that leaves no room in
  /// `scratch` grows the own buffer instead. Write into the region,
  /// Commit() what was produced, parse, and Release() before `scratch` is
  /// reused.
  std::span<char> Borrow(char* scratch, size_t cap);
  void Commit(size_t produced);
  /// Ends an in-place pass: the unparsed tail moves into the parser's own
  /// buffer, sized to it, and no view into `scratch` remains (a payload
  /// being read into its own buffer stays there). An empty tail frees the
  /// buffer.
  void Release();

  // --- Parsing. --------------------------------------------------------
  /// Advances past the previous request/error and parses the next one.
  ParseStatus Next();
  const TextRequest& request() const { return request_; }
  ParseErrorKind error() const { return error_; }
  /// Whether the failed command asked for noreply (errors are still
  /// reported on the wire: memcached only suppresses success replies, and a
  /// malformed line's noreply token is untrustworthy anyway).
  bool error_noreply() const { return error_noreply_; }

  /// Bytes buffered but not yet consumed (0 once a stream parsed cleanly).
  size_t buffered() const { return end_ - pos_; }
  /// Heap the parser's own input buffer holds. After Release() that is the
  /// unparsed tail (`<bytes>+2` while a payload too large for the scratch
  /// region is read into place), and 0 when nothing is pending. Feed()
  /// grows it geometrically.
  size_t buffer_capacity() const { return own_cap_; }

 private:
  enum class State : uint8_t {
    kCommand,       // scanning for a command line
    kData,          // waiting for <bytes>+CRLF of payload
    kSwallowData,   // discarding an oversized payload
    kSwallowLine,   // discarding an overlong command line
  };

  ParseStatus ParseCommandLine(std::string_view line);
  ParseStatus ParseStorage(Verb verb, std::span<const std::string_view> args);
  ParseStatus EmitError(ParseErrorKind kind, bool noreply = false);
  /// Makes room for `want` more bytes at the end of the own buffer (the
  /// input moves there first if it is borrowed).
  char* Reserve(size_t want);
  /// Moves the unparsed bytes into a fresh own buffer of `capacity` bytes.
  void Rehome(size_t capacity);
  bool borrowed() const { return base_ != own_.get(); }

  std::unique_ptr<char[]> own_;  // the parser's own input buffer
  size_t own_cap_ = 0;
  char* base_ = nullptr;  // current input: own_ or a borrowed scratch region
  size_t pos_ = 0;        // first unconsumed byte of base_
  size_t end_ = 0;        // one past the last buffered byte of base_

  State state_ = State::kCommand;
  TextRequest request_;
  std::vector<std::string_view> keys_;  // backing storage for request_.keys
  ParseErrorKind error_ = ParseErrorKind::kUnknownCommand;
  bool error_noreply_ = false;

  // kData bookkeeping: the pending storage request (header already parsed).
  // The key is copied into fixed storage: the command line it pointed into
  // is gone once the tail is released while waiting for the payload.
  Verb pending_verb_ = Verb::kSet;
  char pending_key_[kMaxKeyBytes] = {};
  size_t pending_key_len_ = 0;
  uint32_t pending_flags_ = 0;
  int64_t pending_exptime_ = 0;
  size_t pending_bytes_ = 0;
  bool pending_noreply_ = false;
  size_t swallow_remaining_ = 0;  // kSwallowData / payload+CRLF countdown
};

}  // namespace spotcache::net
