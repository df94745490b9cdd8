// Transport-independent memcached command execution.
//
// ServerCore turns parsed TextRequests into wire responses against an
// ItemStore. Failover and degradation are not its business: the proxy tier
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
// memory gauges: this shard's store index and the process heap).

// Sharded serving (multi-core PR): when a ShardContext is attached, the
// core becomes one of N partitions. Keys it owns (ShardOfKey == self) run
// the exact single-threaded path — no locks, no mailbox; keys owned by
// other shards are scattered ahead through the ShardExchange mailboxes
// (ExecuteBatch parses a whole drain batch, submits every remote op up to
// the next ordering barrier, then executes requests in order, awaiting each
// remote reply at its emission point so multi-key `get` responses come back
// in request order). `stats` and `flush_all` are barriers: they gather
// kSnapshot/kFlushAll round-trips from every peer, so aggregate stats are
// coherent and flush ordering matches the sequential server.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/net/item_store.h"
#include "src/net/protocol.h"
#include "src/net/request_handler.h"
#include "src/net/response.h"
#include "src/net/sharding.h"
#include "src/obs/obs.h"
#include "src/obs/request_telemetry.h"

namespace spotcache::net {

struct ServerCoreConfig {
  size_t capacity_bytes = 64 * 1024 * 1024;
  std::string version = "spotcache-1.6.0";
};

/// Identity + plumbing of one shard in the multi-core server. Default state
/// (null exchange) means "not sharded" and leaves every hot path untouched.
struct ShardContext {
  uint32_t self = 0;
  uint32_t count = 1;
  ShardExchange* exchange = nullptr;
};

/// One parsed-and-owned request (or parse error) from a drain batch. The
/// sharded path deep-copies out of the parser buffer so remote operations
/// can be scattered ahead while later requests are still being parsed.
struct PendingEvent {
  bool is_error = false;
  ParseErrorKind error = ParseErrorKind::kUnknownCommand;

  Verb verb = Verb::kGet;
  std::vector<std::string> keys;
  uint32_t flags = 0;
  int64_t exptime = 0;
  int64_t delay_s = 0;
  std::string stats_arg;
  std::string data;
  bool noreply = false;
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

  /// Makes this core shard `ctx.self` of `ctx.count`: wires the exchange
  /// and the shared cas sequence. Must be called before serving starts.
  void ConfigureShard(const ShardContext& ctx);
  bool sharded() const {
    return shard_.exchange != nullptr && shard_.count > 1;
  }
  uint32_t shard_index() const { return shard_.self; }
  uint32_t shard_count() const { return shard_.count; }

  /// Sharded drain: executes one batch of parsed events in order, scattering
  /// remote-key operations ahead (up to the next stats/flush_all/quit
  /// barrier) and reassembling replies in request order. Returns false when
  /// the connection should close (quit).
  bool ExecuteBatch(const std::vector<PendingEvent>& events, int64_t now,
                    ResponseAssembler* out);

  /// Owner-side execution of a cross-shard op against this core's store.
  /// Runs on this core's thread only; publishes the reply via op->done.
  void ExecuteCrossOp(CrossShardOp* op);

  /// Drains this shard's mailbox (loop-top servicing).
  void ServiceInbox();

  /// This shard's aggregatable counter snapshot (thread-safe only on the
  /// owning thread, or after the loop stopped).
  CoreSnapshot Snapshot() const;

  ItemStore& store() { return store_; }
  const ItemStore& store() const { return store_; }

  uint64_t cmd_get() const { return cmd_get_; }
  uint64_t cmd_set() const { return cmd_set_; }
  uint64_t get_hits() const { return get_hits_; }
  uint64_t get_misses() const { return get_misses_; }
  uint64_t protocol_errors() const { return protocol_errors_; }

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

  // --- Sharded-batch machinery (no-ops when not sharded). ---------------
  /// Scatters remote ops for events [from, barrier) into the batch deque,
  /// wakes the touched shards once, and returns the index scatter should
  /// resume at (always > from).
  size_t ScatterWindow(const std::vector<PendingEvent>& events, size_t from);
  void ScatterEvent(const PendingEvent& ev, size_t index, uint64_t* wake_mask);
  /// The pre-scattered remote op for key position `ki` of the event being
  /// executed (null = local key).
  CrossShardOp* RemoteOp(size_t ki) const {
    return current_event_ops_ != nullptr && ki < current_event_ops_->size()
               ? (*current_event_ops_)[ki]
               : nullptr;
  }
  void AwaitOp(CrossShardOp* op) {
    shard_.exchange->AwaitOp(shard_.self, op);
  }
  /// stats barrier: kSnapshot round-trip to every peer, summed into `total`.
  void GatherPeerSnapshots(CoreSnapshot* total);
  /// flush_all barrier: kFlushAll round-trip to every peer.
  void BroadcastFlush(int64_t now, int64_t delay_s);

  ServerCoreConfig config_;
  ItemStore store_;
  Obs* obs_;
  RequestTelemetry* telemetry_ = nullptr;
  ShardContext shard_;
  int64_t start_time_ = -1;  // first-request time, for the uptime stat

  // Per-batch scratch for the sharded path (reused across batches).
  std::deque<CrossShardOp> batch_ops_;  // stable addresses; awaited in-batch
  std::vector<std::vector<CrossShardOp*>> event_ops_;  // per event, per key
  const std::vector<CrossShardOp*>* current_event_ops_ = nullptr;
  std::vector<std::string_view> key_views_;  // TextRequest reconstruction
  int64_t batch_now_ = 0;

  uint64_t cmd_get_ = 0;
  uint64_t cmd_set_ = 0;
  uint64_t cmd_touch_ = 0;
  uint64_t cmd_delete_ = 0;
  uint64_t cmd_flush_ = 0;
  uint64_t get_hits_ = 0;
  uint64_t get_misses_ = 0;
  uint64_t protocol_errors_ = 0;

  // Fleet counters (resolved once; null when obs is detached).
  Counter* obs_requests_ = nullptr;
  Counter* obs_get_hits_ = nullptr;
  Counter* obs_get_misses_ = nullptr;
  Counter* obs_sets_ = nullptr;
  Counter* obs_protocol_errors_ = nullptr;
};

}  // namespace spotcache::net
