// NetClient: a small blocking memcached text-protocol client, used by the
// conformance suite, the loopback bench, the fleet warm-up streamer, the
// loadgen's prefill and shard probe, the fleet drill, and anyone who wants to
// poke a spotcache_server by hand. Not a connection pool — one socket,
// synchronous round trips, explicit timeouts.
//
// Transport failures are surfaced as typed NetClientError values (refused /
// reset / pipe / timeout / peer-closed), which is what lets callers like the
// fleet warm-up streamer distinguish "the process was SIGKILLed under me"
// (reset or closed: reconnect) from "the server is slow" (timeout: stop and
// report). Reconnect() re-dials the last Connect() target with capped
// exponential backoff, so a client can ride through a supervisor respawning
// the process behind its endpoint.
//
// The typed calls read their replies through net::ReplyReader, the tree's one
// reply grammar. A reply outside it (a garbage line, a torn VALUE block, an
// oversized length) is kProtocol and closes the socket, since the stream is
// out of sync; so does a transport failure while a reply is due, whose late
// bytes would otherwise answer the next call. An ERROR / CLIENT_ERROR /
// SERVER_ERROR line is a well-formed answer (the call fails, last_error()
// stays kNone, the connection lives).
//
// For conformance testing there is also a raw path: SendRaw() +
// RoundTripRaw(), which appends a `version` sentinel so arbitrary (even
// malformed or noreply) request bytes can be fenced and their exact response
// bytes captured. The raw path and the typed calls share one receive buffer.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "src/net/reply_reader.h"

namespace spotcache::net {

/// Why the last operation failed. kNone after any success; protocol-level
/// answers (NOT_STORED, SERVER_ERROR, ...) are not errors — these cover the
/// socket and the reply stream's framing only.
enum class NetClientError : uint8_t {
  kNone,        // no transport failure recorded
  kRefused,     // connect() rejected (ECONNREFUSED / bad address)
  kTimeout,     // SO_RCVTIMEO / SO_SNDTIMEO expired (EAGAIN / ETIMEDOUT)
  kReset,       // ECONNRESET: the peer was killed or dropped us mid-stream
  kPipe,        // EPIPE on send: writing into a dead connection
  kClosed,      // orderly FIN from the peer (recv returned 0)
  kNotConnected,// operation attempted with no socket
  kProtocol,    // a reply outside the grammar; the socket was closed
  kOther,       // anything else (errno preserved in last_errno())
};

std::string_view ToString(NetClientError e);

/// Backoff schedule for Reconnect(): capped exponential, no jitter (the
/// caller's RetryPolicy owns jittered scheduling when it matters).
struct ReconnectPolicy {
  int max_attempts = 5;
  int initial_backoff_ms = 10;
  int max_backoff_ms = 500;
  double backoff_factor = 2.0;
};

class NetClient : private ReplyReader::Handler {
 public:
  NetClient() = default;
  ~NetClient() override;

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  bool Connect(const std::string& host, uint16_t port,
               int timeout_ms = 5000);
  void Close();
  bool connected() const { return fd_ >= 0; }
  /// Hands the connected socket over to the caller (still blocking, with
  /// the Connect() timeouts and TCP_NODELAY set) and forgets it; -1 when not
  /// connected. Bytes already received but not consumed are dropped.
  int ReleaseFd();

  /// Re-dials the last Connect() target, sleeping between attempts on the
  /// policy's capped-exponential schedule. Returns true once connected; on
  /// exhaustion last_error() holds the final attempt's failure. Safe to call
  /// while still connected (the old socket is closed first).
  bool Reconnect(const ReconnectPolicy& policy = {});

  /// Last transport failure (kNone after any successful Connect/Reconnect or
  /// completed read/write).
  NetClientError last_error() const { return last_error_; }
  /// The errno captured with last_error() (0 for kClosed / kNotConnected).
  int last_errno() const { return last_errno_; }
  /// Total successful Reconnect() dials over the client's lifetime.
  uint64_t reconnects() const { return reconnects_; }

  // --- Typed helpers (true / value on protocol success). ---------------
  bool Set(std::string_view key, std::string_view value, uint32_t flags = 0,
           int64_t exptime = 0) {
    return Store("set", key, value, flags, exptime);
  }
  bool Add(std::string_view key, std::string_view value, uint32_t flags = 0,
           int64_t exptime = 0) {
    return Store("add", key, value, flags, exptime);
  }
  bool Replace(std::string_view key, std::string_view value,
               uint32_t flags = 0, int64_t exptime = 0) {
    return Store("replace", key, value, flags, exptime);
  }

  struct GetResult {
    bool found = false;
    std::string value;
    uint32_t flags = 0;
    uint64_t cas = 0;  // only populated by Gets
  };
  GetResult Get(std::string_view key) { return Retrieve("get", key); }
  GetResult Gets(std::string_view key) { return Retrieve("gets", key); }

  bool Delete(std::string_view key);
  bool Touch(std::string_view key, int64_t exptime);
  bool FlushAll(int64_t delay_s = 0);
  std::optional<std::string> Version();
  /// `stats [<arg>]` as name -> value; nullopt on any failure or error line.
  std::optional<std::map<std::string, std::string>> Stats(
      std::string_view arg = "");
  /// Sends `requests` (`replies` pipelined commands, each answered by a
  /// reply of kind `expect`) and reads every reply. True when all of them
  /// are kHit (a stored / deleted / touched / flushed line, a retrieval
  /// with a value, a complete stats block).
  bool Pipeline(std::string_view requests, ReplyReader::Expect expect,
                size_t replies = 1);

  // --- Raw access (conformance / fuzz harnesses). ----------------------
  bool SendRaw(std::string_view bytes);
  /// Sends `bytes`, then a `version` sentinel, and returns the exact bytes
  /// the server wrote back before the sentinel's reply ("VERSION
  /// <server_version>\r\n"). Captures responses byte-for-byte even for
  /// noreply commands (which produce nothing). Payloads that themselves end
  /// with the sentinel string would fool the framing; don't do that.
  std::optional<std::string> RoundTripRaw(
      std::string_view bytes, std::string_view server_version = "spotcache-1.6.0");
  /// Reads one CRLF-terminated line (without the terminator).
  std::optional<std::string> ReadLine();
  /// Reads exactly n bytes.
  std::optional<std::string> ReadBytes(size_t n);

 private:
  bool Store(std::string_view verb, std::string_view key,
             std::string_view value, uint32_t flags, int64_t exptime);
  GetResult Retrieve(std::string_view verb, std::string_view key);
  bool DialOnce();
  void RecordError(NetClientError e, int err);
  bool FillMore();

  // ReplyReader::Handler: the reply of the call in progress.
  void OnValue(const ReplyReader::Value& value) override;
  void OnStat(std::string_view name, std::string_view value) override;
  bool OnReply(ReplyReader::Status status, std::string_view line) override;

  int fd_ = -1;
  std::string rbuf_;  // bytes received but not yet consumed
  size_t rpos_ = 0;
  ReplyReader reader_;
  size_t awaiting_ = 0;   // replies the call in progress still waits for
  size_t positives_ = 0;  // kHit replies among them
  GetResult* value_out_ = nullptr;                           // Get / Gets
  std::map<std::string, std::string>* stats_out_ = nullptr;  // Stats

  // Last Connect() target, for Reconnect().
  std::string host_;
  uint16_t port_ = 0;
  int timeout_ms_ = 5000;

  NetClientError last_error_ = NetClientError::kNone;
  int last_errno_ = 0;
  uint64_t reconnects_ = 0;
};

}  // namespace spotcache::net
