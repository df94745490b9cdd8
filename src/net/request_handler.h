// The request-execution seam between NetServer's transport loop and whoever
// answers the protocol.
//
// NetServer parses bytes into TextRequests and hands each one to the
// RequestHandler it was built with. In both serving binaries a
// ShardedServer's HandlerFactory builds one handler per reactor: a
// ServerCore (the local cache) in spotcache_server, a ProxyCore (src/proxy,
// a fan-out to a fleet of upstreams behind the identical wire surface) in
// spotcache_proxy. The synchronous contract mirrors ServerCore exactly:
//
//   * Handle() appends the complete reply bytes for one request (noreply
//     suppression is the handler's job) and returns false when the
//     connection should close (quit).
//   * HandleParseError() appends the error reply for a malformed command —
//     always sent, even under noreply.
//   * set_telemetry() receives the server's RequestTelemetry so the handler
//     can classify (op, outcome) per request; handlers may ignore it.
//   * PublishGauges() sets the gauges the handler derives from what it
//     serves (ServerCore: the shared store's). Only the reactor that renders
//     the scrape (reactor 0) calls it, just before rendering, so gauges of
//     state the reactors share are counted once; the default has none.
//
// A request's views (keys, data) point into the reactor's receive buffer,
// which the next read overwrites: neither Handle() nor Start() may keep them
// after returning, so anything needed later is copied first.
//
// Handlers run on the server's loop thread only — no locking required. A
// handler whose answers come from elsewhere (the proxy's upstreams) must not
// wait for them inside Handle(): it opts into *deferred replies* instead by
// returning a pollable fd from poll_fd(). NetServer then registers that fd
// in its own epoll loop and drives the handler through the deferred half of
// this interface:
//
//   * Start() begins a request and returns true when its reply can be
//     rendered right away, false when it is pending. Either way the handler
//     names the request with a `handle`.
//   * Service() runs when poll_fd() is readable or next_deadline_us() has
//     passed (and once per loop iteration in any case, so work queued by
//     Start() goes out promptly). It reports the ReplySlots whose requests
//     became ready.
//   * Finish() renders a ready request's reply. NetServer calls it strictly
//     in each connection's request order — a request that completes early
//     waits for its predecessors — so a handler that applies its accounting
//     in Finish() keeps per-connection effects in request order (the
//     proxy's `stats` block counts exactly the requests before it).
//   * Drop() releases a request whose connection closed first; the handler
//     must forget its ReplySlot and never report it.

#pragma once

#include <cstdint>
#include <vector>

#include "src/net/protocol.h"
#include "src/net/response.h"
#include "src/obs/request_telemetry.h"

namespace spotcache::net {

/// Names one deferred reply: the connection (by id, never by pointer — it may
/// close while the request is in flight) and the request's position in it.
struct ReplySlot {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
};

class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  /// Executes one request at unix-seconds `now`, appending the reply to
  /// `out` (`req`'s views die when Handle returns). Returns false when the
  /// connection should close (quit).
  virtual bool Handle(const TextRequest& req, int64_t now,
                      ResponseAssembler* out) = 0;

  /// Appends the reply for a parse error (always sent, even on noreply).
  virtual void HandleParseError(ParseErrorKind kind,
                                ResponseAssembler* out) = 0;

  /// Attaches the serving-path telemetry (non-owning; may be null).
  virtual void set_telemetry(RequestTelemetry* telemetry) { (void)telemetry; }

  /// Sets the handler's scrape gauges; the rendering reactor's loop thread
  /// calls it before every render.
  virtual void PublishGauges() {}

  // --- Deferred replies (used only when poll_fd() >= 0). ----------------

  /// The fd whose readiness means Service() has work; -1 (the default)
  /// keeps the server on the synchronous Handle() path.
  virtual int poll_fd() const { return -1; }

  /// Begins `req` (its views die when Start returns), naming it `*handle`.
  /// Returns true when the reply is ready to Finish() now, false when it is
  /// pending until Service() reports `slot`.
  virtual bool Start(const TextRequest& req, int64_t now, ReplySlot slot,
                     uint64_t* handle) {
    (void)req, (void)now, (void)slot, (void)handle;
    return true;
  }

  /// Appends the reply of ready request `handle` and releases it. Returns
  /// false when the connection should close after it (quit).
  virtual bool Finish(uint64_t handle, ResponseAssembler* out) {
    (void)handle, (void)out;
    return true;
  }

  /// Releases request `handle`, whose connection is gone.
  virtual void Drop(uint64_t handle) { (void)handle; }

  /// Non-blocking I/O round (`io_ready`: poll_fd() polled readable).
  /// Appends the slots of requests that became ready.
  virtual void Service(bool io_ready, std::vector<ReplySlot>* ready) {
    (void)io_ready, (void)ready;
  }

  /// Steady-clock microseconds (RequestTelemetry::NowMicros) by which
  /// Service() must run again, or -1 when nothing is outstanding.
  virtual int64_t next_deadline_us() const { return -1; }
};

}  // namespace spotcache::net
