// NetClient: a small blocking memcached text-protocol client, used by the
// conformance suite, the loopback bench, the fleet warm-up streamer, and
// anyone who wants to poke a spotcache_server by hand. Not a connection pool —
// one socket, synchronous round trips, explicit timeouts.
//
// Transport failures are surfaced as typed NetClientError values (refused /
// reset / pipe / timeout / peer-closed), which is what lets callers like the
// fleet warm-up streamer distinguish "the process was SIGKILLed under me"
// (reset or closed: reconnect) from "the server is slow" (timeout: stop and
// report). Reconnect() re-dials the last Connect() target with capped
// exponential backoff, so a client can ride through a supervisor respawning
// the process behind its endpoint.
//
// For conformance testing there is also a raw path: SendRaw() +
// RoundTripRaw(), which appends a `version` sentinel so arbitrary (even
// malformed or noreply) request bytes can be fenced and their exact response
// bytes captured.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace spotcache::net {

/// Why the last transport operation failed. kNone after any success;
/// protocol-level failures (e.g. NOT_STORED) are not errors — these cover the
/// socket only.
enum class NetClientError : uint8_t {
  kNone,        // no transport failure recorded
  kRefused,     // connect() rejected (ECONNREFUSED / bad address)
  kTimeout,     // SO_RCVTIMEO / SO_SNDTIMEO expired (EAGAIN / ETIMEDOUT)
  kReset,       // ECONNRESET: the peer was killed or dropped us mid-stream
  kPipe,        // EPIPE on send: writing into a dead connection
  kClosed,      // orderly FIN from the peer (recv returned 0)
  kNotConnected,// operation attempted with no socket
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

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  bool Connect(const std::string& host, uint16_t port,
               int timeout_ms = 5000);
  void Close();
  bool connected() const { return fd_ >= 0; }

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
           int64_t exptime = 0);
  bool Add(std::string_view key, std::string_view value, uint32_t flags = 0,
           int64_t exptime = 0);
  bool Replace(std::string_view key, std::string_view value,
               uint32_t flags = 0, int64_t exptime = 0);

  struct GetResult {
    bool found = false;
    std::string value;
    uint32_t flags = 0;
    uint64_t cas = 0;  // only populated by Gets
  };
  GetResult Get(std::string_view key);
  GetResult Gets(std::string_view key);

  bool Delete(std::string_view key);
  bool Touch(std::string_view key, int64_t exptime);
  bool FlushAll(int64_t delay_s = 0);
  std::optional<std::string> Version();
  std::optional<std::map<std::string, std::string>> Stats();

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
  std::optional<std::string> SimpleCommand(std::string cmd);
  GetResult Retrieve(std::string_view verb, std::string_view key);
  bool DialOnce();
  void RecordError(NetClientError e, int err);

  int fd_ = -1;
  std::string rbuf_;  // bytes received but not yet consumed
  size_t rpos_ = 0;
  bool FillMore();

  // Last Connect() target, for Reconnect().
  std::string host_;
  uint16_t port_ = 0;
  int timeout_ms_ = 5000;

  NetClientError last_error_ = NetClientError::kNone;
  int last_errno_ = 0;
  uint64_t reconnects_ = 0;
};

}  // namespace spotcache::net
