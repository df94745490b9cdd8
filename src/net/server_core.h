// Transport-independent memcached command execution.
//
// ServerCore turns parsed TextRequests into wire responses against a
// StripedStore. Failover and degradation are not its business: the proxy tier
// (src/proxy) runs breakers, backup fallback and misses in front of a fleet
// of these servers.
//
// Handle() is a pure function of (request, now, store state): no wall
// clock, no I/O, no iteration-order dependence — which is what lets the
// conformance suite run the same tables both in-process and over a socket,
// and the fuzzer compare byte-identical outputs across stream chunkings.
//
// Telemetry (optional, attached by the server): each handled request reports
// its (op, outcome) classification, and span-sampled requests get their
// store phase stamped, so the flight recorder can attribute tail latency.
// The wall-clock reads live behind `telemetry->span_active()` (1/256 by
// default), preserving Handle()'s determinism for every unsampled request.
//
// Stats surfaces: plain `stats` emits the memcached-compatible block;
// `stats spotcache` emits the server-telemetry extension (event-loop
// health, sampled span counts, per-(op, outcome) latency quantiles, and the
// memory figures: the store index, every reactor's connection buffers and
// the process heap). The scrape's `net/store_*` gauges come from
// PublishGauges(), which reads the same StripedStore::totals() that `stats
// spotcache` prints from; `spotcache_conn_buffer_bytes` sums the
// `net/conn_buffer_bytes` gauges the scrape sums.

// Multi-reactor serving: ShardedServer's cache factory builds one ServerCore
// per reactor, all serving from one StripedStore (see striped_store.h), so any
// reactor executes any key on its own thread. ShardContext names the reactor
// and the shared state; a core built alone serves a one-stripe store of its
// own. Each request fact is counted once, in the reactor's registry
// (`net/get_hits`, `net/sets`, ...): the owning reactor is the only writer
// of its counters, and the reactor that serves `stats` sums every
// reactor's counters (relaxed atomic reads) and the store's totals. The
// scrape renders the same counters, so `stats` and the scrape agree.
// flush_all flushes the shared store, stripe by stripe.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/protocol.h"
#include "src/net/request_handler.h"
#include "src/net/response.h"
#include "src/net/striped_store.h"
#include "src/obs/obs.h"
#include "src/obs/request_telemetry.h"

namespace spotcache::net {

struct ServerCoreConfig {
  size_t capacity_bytes = 64 * 1024 * 1024;
  std::string version = "spotcache-1.6.0";
};

class ServerCore;

/// Identity of one reactor's core in the multi-reactor server, and what the
/// cores share. The default (count 1) is a core serving its own store.
struct ShardContext {
  uint32_t self = 0;
  uint32_t count = 1;
  /// The store every reactor serves from.
  StripedStore* store = nullptr;
  /// Every reactor's core, by reactor index, for the `stats` sums.
  const std::vector<const ServerCore*>* cores = nullptr;
};

/// The `stats` figures: the store's totals plus the request counters of
/// every reactor. cmd_get is get_hits + get_misses: every key of a get is
/// exactly one of the two.
struct CoreSnapshot {
  uint64_t curr_items = 0;
  uint64_t bytes_used = 0;
  uint64_t capacity_bytes = 0;
  uint64_t evictions = 0;
  uint64_t expired_reaped = 0;
  uint64_t cmd_get = 0;
  uint64_t cmd_set = 0;
  uint64_t cmd_touch = 0;
  uint64_t cmd_delete = 0;
  uint64_t cmd_flush = 0;
  uint64_t get_hits = 0;
  uint64_t get_misses = 0;
  uint64_t protocol_errors = 0;
  int64_t start_time = -1;
};

class ServerCore : public RequestHandler {
 public:
  explicit ServerCore(const ServerCoreConfig& config, Obs* obs = nullptr);

  /// Attaches the serving-path telemetry (non-owning; may be null). The
  /// server wires its RequestTelemetry in here so Handle() can classify
  /// outcomes and stamp the store phase on sampled requests.
  void set_telemetry(RequestTelemetry* telemetry) override {
    telemetry_ = telemetry;
  }

  /// Executes one request at unix-seconds `now`, appending any reply to
  /// `out` (noreply suppresses success/failure status lines, per protocol).
  /// Returns false when the connection should close (quit).
  bool Handle(const TextRequest& req, int64_t now,
              ResponseAssembler* out) override;

  /// Appends the reply for a parse error (always sent: memcached reports
  /// protocol errors even on noreply commands).
  void HandleParseError(ParseErrorKind kind, ResponseAssembler* out) override;

  /// Sets the `net/store_*` gauges from one read of the store's totals. The
  /// store is shared, so only the rendering reactor's core sets them and the
  /// cross-reactor sum counts it once.
  void PublishGauges() override;

  /// Makes this core reactor `ctx.self` of `ctx.count`, serving from
  /// `ctx.store`. Must be called before serving starts.
  void ConfigureShard(const ShardContext& ctx);
  bool sharded() const { return shard_.count > 1; }

  /// The store's totals plus every reactor's request counters. Safe from
  /// any thread.
  CoreSnapshot Snapshot() const;

  StripedStore& store() { return *store_; }
  const StripedStore& store() const { return *store_; }

  uint64_t protocol_errors() const {
    return static_cast<uint64_t>(protocol_errors_->value());
  }

 private:
  /// (outcome, bytes) classification of one handled request, reported to
  /// the telemetry layer by Handle().
  struct Outcome {
    RequestOutcome outcome = RequestOutcome::kOther;
    uint32_t value_bytes = 0;
  };

  Outcome HandleRetrieve(const TextRequest& req, int64_t now,
                         ResponseAssembler* out);
  Outcome HandleStorage(const TextRequest& req, int64_t now,
                        ResponseAssembler* out);
  void HandleStats(const TextRequest& req, int64_t now,
                   ResponseAssembler* out);
  /// The memcached-compatible stats block.
  void AppendDefaultStats(int64_t now, ResponseAssembler* out);
  /// The `stats spotcache` extension: telemetry + event-loop health.
  void AppendSpotcacheStats(ResponseAssembler* out);
  /// Calls `fn` on every reactor's core (this one alone when unsharded).
  template <typename Fn>
  void ForEachCore(const Fn& fn) const {
    if (shard_.cores == nullptr) {
      fn(*this);
      return;
    }
    for (const ServerCore* core : *shard_.cores) {
      fn(*core);
    }
  }

  ServerCoreConfig config_;
  StripedStore own_store_;  // the single-reactor store
  StripedStore* store_ = &own_store_;
  Obs* obs_;
  MetricsRegistry own_registry_;  // a core built without an Obs
  MetricsRegistry* registry_;
  RequestTelemetry* telemetry_ = nullptr;
  ShardContext shard_;

  // Request counters, resolved once from registry_.
  Counter* requests_;
  Counter* get_hits_;
  Counter* get_misses_;
  Counter* sets_;
  Counter* touches_;
  Counter* deletes_;
  Counter* flushes_;
  Counter* protocol_errors_;
  std::atomic<int64_t> start_time_{-1};  // first request, for uptime
};

}  // namespace spotcache::net
