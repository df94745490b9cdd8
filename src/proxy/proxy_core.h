// ProxyCore: the memcached-speaking front of the proxy tier.
//
// Plugs into NetServer through the RequestHandler seam (request_handler.h),
// so the proxy binary reuses the entire src/net serving surface — epoll
// loop, zero-copy parser, writev assembly, backpressure, metrics scrape,
// flight recorder — and only the execution step changes: instead of an
// ItemStore lookup, every request fans out to the fleet through an
// UpstreamPool.
//
// Wire semantics are pinned byte-for-byte against direct serving by the
// conformance suite's proxy transport:
//
//   * get/gets scatter across owning upstreams (pipelined: a client batch
//     leaves in one send per upstream) and reassemble VALUE blocks in
//     request-key order; unreachable keys degrade to backup copies and
//     finally to plain misses — a client can see a miss where direct
//     serving would hit, but never an error;
//   * storage/delete/touch forward to the owner and relay its status line
//     verbatim (noreply suppresses the relay, but the round trip still
//     happens so upstream cas numbering stays in lockstep);
//   * version and stats answer locally — stats is the proxy's own
//     deterministic counter block (proxy_* lines), not an upstream's;
//   * flush_all broadcasts to every upstream plus the backup;
//   * parse errors never touch an upstream: the reply comes from the same
//     ErrorReply table the server uses.
//
// ProxyCore never waits for an upstream on the server's loop: it is a
// deferred-reply handler. Start() submits the request to the pool's
// non-blocking engine, NetServer polls the pool's fd in its own epoll loop
// and calls Service(), and Finish() renders the reply once NetServer
// releases it in connection order. One stalled upstream therefore delays
// only the requests whose keys it owns (until their leg deadline sends them
// down the ladder); every other client keeps its own pace. Counters —
// proxy_* stats and the proxy/* obs registry — are applied in Finish(), so
// they follow each connection's request order exactly.
//
// Handle() stays as the synchronous form (benches and tests drive a core
// with no server): Start, pump the pool until the request is done, Finish.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/request_handler.h"
#include "src/obs/obs.h"
#include "src/proxy/membership.h"
#include "src/proxy/upstream_pool.h"

namespace spotcache::proxy {

struct ProxyCoreConfig {
  std::string version = "spotcache-1.6.0";
  UpstreamPoolConfig upstreams;
};

/// Monotonic request counters, mirrored into proxy/* obs counters when an
/// Obs is attached. All loop-thread-only.
struct ProxyStats {
  uint64_t requests = 0;
  uint64_t gets = 0;        // get/gets commands
  uint64_t get_keys = 0;    // keys across those commands
  uint64_t get_hits = 0;    // keys served by their owning primary
  uint64_t backup_hits = 0; // keys served by the backup rung
  uint64_t misses = 0;      // keys a live rung definitively missed
  uint64_t sheds = 0;       // keys no rung could serve (reported as misses)
  uint64_t sets = 0;        // set/add/replace commands
  uint64_t set_primary = 0;
  uint64_t set_backup = 0;
  uint64_t set_failures = 0;  // SERVER_ERROR relayed: no rung reachable
  uint64_t deletes = 0;
  uint64_t touches = 0;
  uint64_t flushes = 0;
  uint64_t reloads = 0;
  uint64_t reload_failures = 0;
  uint64_t protocol_errors = 0;
};

class ProxyCore final : public net::RequestHandler {
 public:
  explicit ProxyCore(const ProxyCoreConfig& config, Obs* obs = nullptr,
                     EventTracer* tracer = nullptr);

  bool Handle(const net::TextRequest& req, int64_t now,
              net::ResponseAssembler* out) override;
  void HandleParseError(net::ParseErrorKind kind,
                        net::ResponseAssembler* out) override;
  void set_telemetry(RequestTelemetry* telemetry) override {
    telemetry_ = telemetry;
  }

  // Deferred replies (see request_handler.h).
  int poll_fd() const override { return pool_.fd(); }
  bool Start(const net::TextRequest& req, int64_t now, net::ReplySlot slot,
             uint64_t* handle) override;
  bool Finish(uint64_t handle, net::ResponseAssembler* out) override;
  void Drop(uint64_t handle) override;
  void Service(bool io_ready, std::vector<net::ReplySlot>* ready) override;
  int64_t next_deadline_us() const override {
    return pool_.next_deadline_us();
  }

  /// Re-reads `path` and applies it to the pool (loop context only — wire
  /// this behind NetServer::SetReloadHandler). Returns false (keeping the
  /// previous fleet view) when the file is unreadable or malformed.
  bool ReloadMembership(const std::string& path);

  UpstreamPool& pool() { return pool_; }
  const UpstreamPool& pool() const { return pool_; }
  const ProxyStats& stats() const { return stats_; }

 private:
  /// One request between Start() and Finish().
  struct Request {
    net::Verb verb = net::Verb::kGet;
    bool noreply = false;
    bool has_op = false;   // an upstream op carries it
    bool done = false;     // ready to Finish()
    bool dropped = false;  // its connection closed first
    UpstreamPool::OpId op = 0;
    net::ReplySlot slot;
  };

  /// Records `req` and submits its upstream op, if any. A `deferred` op is
  /// reported to Service() when it finishes; otherwise the caller Wait()s.
  uint64_t Begin(const net::TextRequest& req, bool deferred);
  void FreeRequest(uint64_t handle);
  void RenderRetrieve(const Request& r, net::ResponseAssembler* out,
                      RequestOutcome* outcome, uint32_t* value_bytes);
  void RenderForwarded(const Request& r, net::ResponseAssembler* out,
                       RequestOutcome* outcome);
  void AppendStats(net::ResponseAssembler* out);
  /// Advances the proxy/* obs mirrors of the pool's failure counters.
  void MirrorPoolCounters();
  /// Appends the forwarded wire bytes for one request (storage payload and
  /// flags included, noreply stripped) to `wire`.
  static void RebuildWire(const net::TextRequest& req, std::string* wire);

  ProxyCoreConfig config_;
  UpstreamPool pool_;
  RequestTelemetry* telemetry_ = nullptr;
  ProxyStats stats_;

  std::vector<Request> requests_;  // handle = index
  std::vector<uint64_t> free_requests_;
  std::vector<uint64_t> finished_;  // Service() scratch: request handles
  uint64_t mirrored_absorbed_ = 0;
  uint64_t mirrored_reconnects_ = 0;

  // proxy/* obs counters (null when obs is detached).
  Counter* obs_requests_ = nullptr;
  Counter* obs_get_hits_ = nullptr;
  Counter* obs_backup_hits_ = nullptr;
  Counter* obs_misses_ = nullptr;
  Counter* obs_sheds_ = nullptr;
  Counter* obs_sets_ = nullptr;
  Counter* obs_absorbed_ = nullptr;
  Counter* obs_reconnects_ = nullptr;
  Counter* obs_reloads_ = nullptr;
  Counter* obs_protocol_errors_ = nullptr;
};

}  // namespace spotcache::proxy
