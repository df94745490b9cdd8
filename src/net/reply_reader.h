// ReplyReader: incremental parser for memcached text responses on a
// pipelined connection.
//
// The caller tells the reader what kind of reply to expect for every request
// it sends (Push); the reader consumes raw received bytes incrementally (any
// chunking) and reports one completion per reply, in request order. It has
// two users with different needs, selected by Mode:
//
//   * kClassify — the open-loop load generator keeps many requests in flight
//     per connection and only needs each reply's *disposition* (hit / miss /
//     error). Value payloads are skipped by byte count without copying, and
//     ERROR / CLIENT_ERROR / SERVER_ERROR lines terminate the current
//     expectation with kError — this is how the serving side's load sheds
//     (SERVER_ERROR replies) show up in loadgen results.
//   * kStrict — the proxy's upstream legs relay what they read, so every
//     VALUE block is handed to the Handler (flags, cas and payload), and
//     anything outside the vocabulary a well-behaved upstream may send is
//     corruption: a retrieval reply may only hold VALUE blocks and END, a
//     status line must be one of the storage / delete / touch / flush
//     replies, a VALUE header must be exactly `VALUE <key> <flags> <bytes>
//     [<cas>]` with bytes <= kMaxValueBytes, and its payload must end in
//     CRLF. A torn or garbage reply therefore never leaks into a client's
//     answer: the connection is declared dead instead.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

namespace spotcache::net {

class ReplyReader {
 public:
  /// What the next un-answered request expects back.
  enum class Expect : uint8_t {
    kRetrieval,  // get/gets: VALUE blocks then END
    kLine,       // set/delete/touch/...: exactly one status line
  };

  enum class Status : uint8_t {
    kHit,    // retrieval with >= 1 VALUE, or a positive status line
    kMiss,   // retrieval END with no VALUE, or NOT_STORED/NOT_FOUND/EXISTS
    kError,  // ERROR / CLIENT_ERROR / SERVER_ERROR
  };

  enum class Mode : uint8_t {
    kClassify,  // dispositions only (payloads skipped)
    kStrict,    // VALUE blocks delivered, strict vocabulary
  };

  /// One VALUE block of a retrieval reply. The views are valid only for the
  /// duration of the OnValue callback.
  struct Value {
    std::string_view key;
    uint32_t flags = 0;
    uint64_t cas = 0;
    std::string_view data;
  };

  /// Receives the parsed replies, in request order.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A complete VALUE block of the current retrieval (kStrict only).
    virtual void OnValue(const Value& value) { (void)value; }
    /// The oldest pending request's reply is complete; `line` is its final
    /// line without CRLF ("END" for a retrieval). The expectation has
    /// already been popped, so the handler may Push() new ones.
    virtual void OnReply(Status status, std::string_view line) = 0;
  };

  using Sink = std::function<void(Status)>;

  explicit ReplyReader(Mode mode = Mode::kClassify) : mode_(mode) {}

  /// Registers the reply expectation for a request just sent (FIFO order).
  void Push(Expect e) { pending_.push_back(e); }
  size_t pending() const { return pending_.size(); }

  /// Consumes `bytes`, reporting every completed reply to `handler` in
  /// order. Returns false on protocol corruption: an unparseable (or, in
  /// kStrict, out-of-vocabulary) reply line, a torn VALUE payload, or
  /// response bytes arriving with no pending expectation. After a false
  /// return the stream is unrecoverable and the connection should be closed.
  bool Feed(std::string_view bytes, Handler* handler);
  /// Disposition-only form of Feed(): `sink` sees one Status per reply.
  bool Feed(std::string_view bytes, const Sink& sink);

  /// Drops every expectation and any partially received reply (the
  /// connection is being replaced).
  void Reset();

 private:
  bool ConsumeLine(std::string_view line, Handler* handler);
  bool ConsumeValueHeader(std::string_view line);
  /// Strict payload collection; returns bytes consumed, or npos on a torn
  /// payload terminator.
  size_t ConsumePayload(std::string_view bytes, Handler* handler);

  Mode mode_;
  std::deque<Expect> pending_;
  std::string partial_;     // buffered incomplete line
  size_t skip_bytes_ = 0;   // remaining VALUE payload (+ CRLF) still due
  bool saw_value_ = false;  // current retrieval produced at least one VALUE

  // kStrict: the VALUE block being collected.
  std::string value_key_;
  uint32_t value_flags_ = 0;
  uint64_t value_cas_ = 0;
  std::string value_data_;  // payload + CRLF when it spans Feed() calls
};

}  // namespace spotcache::net
