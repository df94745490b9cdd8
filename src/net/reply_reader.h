// ReplyReader: the one incremental parser for memcached text replies.
//
// The caller tells the reader what kind of reply to expect for every request
// it sends (Push); the reader consumes raw received bytes incrementally (any
// chunking) and reports one completion per reply, in request order. Every
// client in the tree reads replies through it: the blocking NetClient, the
// open-loop load generator (many requests in flight per connection) and the
// proxy's upstream legs. All of them get the same strict grammar:
//
//   * a retrieval reply holds only `VALUE <key> <flags> <bytes> [<cas>]`
//     blocks and END; bytes <= kMaxValueBytes and every payload ends in CRLF.
//     Each block goes to Handler::OnValue (default: ignored); a block that
//     arrives whole in one Feed() is handed out without a copy;
//   * a status line must be one of the storage / delete / touch / flush
//     replies;
//   * a stats reply holds only `STAT <name> <value>` lines (exactly three
//     tokens, each to Handler::OnStat) and END;
//   * ERROR / CLIENT_ERROR / SERVER_ERROR completes any expectation as
//     kError — this is how the serving side's load sheds show up.
//
// Anything else is corruption, and so is a line longer than any of these:
// Feed() returns false and the connection is out of sync, so a torn or
// garbage reply never reads as an answer.

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
    kStats,      // stats [<arg>]: STAT lines then END
  };

  enum class Status : uint8_t {
    kHit,    // retrieval with >= 1 VALUE, a positive status line, stats END
    kMiss,   // retrieval END with no VALUE, or NOT_STORED/NOT_FOUND/EXISTS
    kError,  // ERROR / CLIENT_ERROR / SERVER_ERROR
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
    /// A complete VALUE block of the current retrieval.
    virtual void OnValue(const Value& value) { (void)value; }
    /// One `STAT <name> <value>` line of the current stats reply. The views
    /// are valid only for the duration of the call.
    virtual void OnStat(std::string_view /*name*/,
                        std::string_view /*value*/) {}
    /// The oldest pending request's reply is complete; `line` is its final
    /// line without CRLF ("END" for a retrieval). The expectation has
    /// already been popped, so the handler may Push() new ones. Returning
    /// false ends Feed() as corruption.
    virtual bool OnReply(Status status, std::string_view line) = 0;
  };

  using Sink = std::function<void(Status)>;

  /// Registers the reply expectation for a request just sent (FIFO order).
  void Push(Expect e) { pending_.push_back(e); }
  size_t pending() const { return pending_.size(); }

  /// Consumes `bytes`, reporting every completed reply to `handler` in
  /// order. Returns false on protocol corruption: a reply line outside the
  /// grammar above, a torn VALUE payload, response bytes arriving with no
  /// pending expectation, or a handler's OnReply() returning false. After a
  /// false return the stream is unrecoverable and the connection should be
  /// closed.
  bool Feed(std::string_view bytes, Handler* handler);
  /// Disposition-only form of Feed(): `sink` sees one Status per reply.
  bool Feed(std::string_view bytes, const Sink& sink);

  /// Drops every expectation and any partially received reply (the
  /// connection is being replaced).
  void Reset();

 private:
  bool ConsumeLine(std::string_view line, Handler* handler);
  bool ConsumeValueHeader(std::string_view line);
  /// Pops the oldest expectation and reports its reply.
  bool Complete(Status status, std::string_view line, Handler* handler);
  /// Payload collection; returns bytes consumed, or npos on a torn payload
  /// terminator.
  size_t ConsumePayload(std::string_view bytes, Handler* handler);

  std::deque<Expect> pending_;
  std::string partial_;      // buffered incomplete line
  size_t payload_due_ = 0;   // remaining VALUE payload (+ CRLF) still due
  bool saw_value_ = false;   // current retrieval produced at least one VALUE

  // The VALUE block being collected.
  std::string value_key_;
  uint32_t value_flags_ = 0;
  uint64_t value_cas_ = 0;
  std::string value_data_;  // payload + CRLF when it spans Feed() calls
};

}  // namespace spotcache::net
