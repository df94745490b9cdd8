// UpstreamPool: the proxy's server-side fan-out to the cache fleet.
//
// Keys are homed on consistent-hash slots (HashString on the key, weight 1.0
// per slot, dead slots kept on the ring — the fleet's MembershipPublisher
// mirrors the same ring), and each slot is fronted by a src/resilience
// CircuitBreaker. The absorption contract: no transport failure ever
// surfaces to the proxy's client — gets degrade primary → backup → miss,
// writes degrade primary → backup → unavailable, and a failed upstream
// records a breaker failure. The next leg homed on a failed upstream dials
// it again (`reconnects` counts the re-dials that connect).
//
// The pool is a non-blocking engine. Every upstream connection is a
// non-blocking socket registered in the pool's own epoll set (fd()), and
// connects use EINPROGRESS, so nothing in the pool ever sleeps or blocks in
// recv. An operation (a multiget, one forwarded status-line command, or a
// flush broadcast) becomes one *leg* per key and upstream:
//
//   * each upstream keeps a FIFO of legs — queued, then in flight — with no
//     cap on commands in flight (mcrouter has none by default either);
//   * legs submitted before a Service() round leave in that round, in one
//     send per upstream, so a pipelined client batch costs one upstream
//     round trip however many commands it holds. Only a leg whose upstream
//     is still connecting waits longer, until the connect finishes;
//   * replies are parsed incrementally by net::ReplyReader, the tree's one
//     strict reply grammar, so a torn or out-of-vocabulary reply is a
//     transport failure, never data. So is an ERROR / CLIENT_ERROR /
//     SERVER_ERROR answer to a get: its legs fail over like a dead socket's.
//     An error line in answer to a status-line command is relayed;
//   * every leg on the wire (and every connect in progress) carries a
//     deadline of `op_timeout_ms` from the round it was sent in — its
//     submission round, or the connect's completion for a leg that waited
//     on one; a missed deadline is a transport failure.
//
// Ops are recycled: a released op's slot keeps the capacity of its wire
// bytes, key bytes and value buffers, so a steady stream of requests runs
// without heap allocation.
//
// A transport failure keeps the resolved prefix: legs already answered
// stick, and the upstream's unresolved legs re-route to the backup in FIFO
// order (writes included); legs the backup cannot take resolve as
// unreachable. Multigets reassemble in request-key order, so cross-node
// multigets cost max-over-nodes round trips, not sum-over-keys.
//
// Two ways to drive it:
//
//   * asynchronously, from an event loop: Submit*() returns an OpId,
//     Service() does the I/O, TakeFinished() reports finished ops whose
//     result() stays valid until Release(). ProxyCore registers fd() in
//     NetServer's loop and runs Service() when it is readable or
//     next_deadline_us() passes;
//   * synchronously: MultiGet / ForwardLineCommand / BroadcastFlush submit
//     one op and pump fd() until it is done.
//
// Membership is applied as whole documents (see membership.h): endpoints
// that did not change keep their connection and breaker history; changed or
// dead slots reset. The pool is single-threaded by design: it lives inside
// ProxyCore, which NetServer drives from its one event loop.
//
// Counting: each pool fact (absorbed failures, reconnects, breaker skips,
// backup-served and unreachable keys/writes) is one `proxy/*` counter in a
// MetricsRegistry — the one passed in (ProxyCore passes its own), or one the
// pool owns when built without. The pool is the counters' only writer, and
// stats() is a by-value snapshot of them, so the proxy's `stats` block and
// its scrape read the same storage.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/reply_reader.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/proxy/membership.h"
#include "src/resilience/circuit_breaker.h"
#include "src/routing/consistent_hash.h"
#include "src/util/time.h"

namespace spotcache::proxy {

struct UpstreamPoolConfig {
  CircuitBreakerConfig breaker{
      .failure_threshold = 2,
      .open_base = Duration::Millis(100),
      .open_backoff = 2.0,
      .open_max = Duration::Seconds(2),
      .half_open_successes = 1,
      .probe_jitter = 0.25,
  };
  /// Per-leg deadline: a command on the wire (or a connect in progress)
  /// unanswered after this long fails its upstream.
  int op_timeout_ms = 250;
  uint64_t seed = 0;
};

/// Which rung of the degradation ladder served one key (or one write).
enum class ServedRung : uint8_t {
  kPrimary,  // the owning slot answered
  kBackup,   // primary unreachable / breaker open; the backup answered
  kNone,     // nothing reachable: a get becomes a miss, a write is lost
};

/// Per-key result of a MultiGet, in request-key order.
struct KeyFetch {
  bool found = false;
  ServedRung rung = ServedRung::kNone;
  uint32_t flags = 0;
  uint64_t cas = 0;
  std::string data;
};

/// Result of forwarding a single status-line command (storage / delete /
/// touch): the upstream's reply line (CRLF stripped), or nullopt when no
/// rung was reachable.
struct ForwardResult {
  std::optional<std::string> line;
  ServedRung rung = ServedRung::kNone;
};

/// A snapshot of the pool's proxy/* counters (see stats()).
struct UpstreamPoolStats {
  uint64_t absorbed_failures = 0;  // transport failures hidden by degradation
  uint64_t reconnects = 0;
  uint64_t breaker_skips = 0;  // upstream legs skipped while a breaker is open
  uint64_t backup_served = 0;  // keys/writes that landed on the backup rung
  uint64_t unreachable = 0;    // keys/writes no rung could serve
};

/// What a finished operation produced (see UpstreamPool::result()).
struct OpResult {
  /// get: the number of requested keys, and key `i` in request order.
  size_t key_count() const { return key_ends.size(); }
  std::string_view key(size_t i) const {
    const size_t begin = i == 0 ? 0 : key_ends[i - 1];
    return std::string_view(key_bytes).substr(begin, key_ends[i] - begin);
  }

  std::string key_bytes;           // get: the keys, concatenated
  std::vector<uint32_t> key_ends;  // get: end offset of each key
  /// get: fetches[i] is key i's result for i < key_count(); entries past
  /// that are spares recycled from an earlier, wider multiget.
  std::vector<KeyFetch> fetches;
  ForwardResult line;              // forwarded status-line command
  size_t acked = 0;                // flush: upstreams that answered OK
};

class UpstreamPool : private net::ReplyReader::Handler {
 public:
  using OpId = uint32_t;
  /// Tag for ops that are only ever Wait()-ed on: TakeFinished() skips them.
  static constexpr uint64_t kWaitTag = ~0ULL;

  /// Counts into `registry`, or into a registry of its own when null.
  explicit UpstreamPool(const UpstreamPoolConfig& config,
                        EventTracer* tracer = nullptr,
                        MetricsRegistry* registry = nullptr);
  ~UpstreamPool() override;

  UpstreamPool(const UpstreamPool&) = delete;
  UpstreamPool& operator=(const UpstreamPool&) = delete;

  /// Adds slot `slot` to the ring or re-points it. A changed endpoint resets
  /// the slot's connection and breaker; an identical endpoint is a no-op.
  void SetNode(uint64_t slot, const std::string& host, uint16_t port);
  /// The off-ring backup (hot copies; read/write fallback).
  void SetBackup(const std::string& host, uint16_t port);
  /// Trips the slot's breaker open without waiting for traffic to find the
  /// corpse (the membership file said `dead`).
  void MarkDead(uint64_t slot);
  /// Removes the slot from the ring entirely.
  void RemoveNode(uint64_t slot);

  /// Applies a whole membership document: unchanged endpoints keep their
  /// breaker and connection, changed ones reset, absent slots are removed,
  /// `dead` slots are marked. Records the document's generation in the
  /// `proxy/generation` gauge (`proxy/nodes` follows every slot change).
  void ApplyMembership(const FleetMembership& m);

  // --- Asynchronous engine. ----------------------------------------------

  /// Starts fetching `keys` (with cas values when `with_cas`). The result
  /// holds one KeyFetch per key in request-key order; every key resolves to
  /// found / miss / unreachable-miss via the degradation ladder.
  OpId SubmitGet(std::span<const std::string_view> keys, bool with_cas,
                 uint64_t tag);
  /// Starts forwarding one command whose reply is a single status line (set
  /// / add / replace / delete / touch). `write_wire(std::string*)` appends
  /// the full request bytes, payload and CRLFs included, to the op's wire
  /// buffer (empty, with capacity recycled from earlier ops); `key` homes it
  /// on the ring.
  template <typename WriteWire>
  OpId SubmitLine(std::string_view key, uint64_t tag, WriteWire&& write_wire) {
    const OpId id = NewOp(OpKind::kLine, tag);
    write_wire(&ops_[id].wire);
    RouteLine(id, key);
    return id;
  }
  /// Starts broadcasting flush_all (with optional delay) to every node plus
  /// the backup; the result counts the upstreams that acknowledged OK.
  OpId SubmitFlush(int64_t delay_s, uint64_t tag);

  /// One non-blocking round: reads whatever replies are ready (only probes
  /// the sockets when `io_ready`, i.e. fd() polled readable), fails legs
  /// past their deadline, and sends every queued command.
  void Service(bool io_ready);
  /// Moves the tags of the ops that finished since the last call into `out`
  /// (cleared first), in completion order.
  void TakeFinished(std::vector<uint64_t>* out);
  /// A finished op's result; valid until Release().
  OpResult& result(OpId op) { return ops_[op].result; }
  void Release(OpId op);

  /// The pool's epoll fd: readable whenever an upstream socket has work.
  int fd() const { return epoll_fd_; }
  /// Steady-clock microseconds by which Service() must run again: now when
  /// commands wait to be sent or finished ops wait to be taken, the nearest
  /// leg or connect deadline otherwise, -1 when nothing is outstanding.
  int64_t next_deadline_us() const;

  // --- Synchronous facades (submit, then pump fd() until done). ----------

  /// Fetches `keys`, filling `out` in request-key order. Never fails.
  void MultiGet(const std::vector<std::string_view>& keys, bool with_cas,
                std::vector<KeyFetch>* out);
  /// Forwards one status-line command (see SubmitLine).
  ForwardResult ForwardLineCommand(std::string_view key,
                                   const std::string& wire);
  /// Broadcasts flush_all; returns how many upstreams acknowledged with OK.
  size_t BroadcastFlush(int64_t delay_s);
  /// Pumps fd() until `op` has finished (its result is then valid). The op
  /// will not be reported by TakeFinished().
  void Wait(OpId op);

  UpstreamPoolStats stats() const;
  /// The fleet view, read from the proxy/generation and proxy/nodes gauges.
  uint64_t generation() const {
    return static_cast<uint64_t>(generation_gauge_->value());
  }
  size_t node_count() const {
    return static_cast<size_t>(nodes_gauge_->value());
  }
  bool has_backup() const { return backup_ != nullptr; }
  /// The slot owning `key` (for tests).
  std::optional<uint64_t> OwnerOf(std::string_view key) const;

 private:
  enum class OpKind : uint8_t { kGet, kLine, kFlush };

  struct Op {
    OpKind kind = OpKind::kGet;
    bool with_cas = false;
    bool done = false;
    uint64_t tag = 0;
    size_t legs_left = 0;
    size_t fallen = 0;           // get keys sent down to the backup rung
    size_t backup_resolved = 0;  // ...of which the backup answered
    std::string wire;            // line / flush command bytes
    OpResult result;
  };

  /// One command of one op on one upstream.
  struct Leg {
    OpId op;
    uint32_t key;  // get legs: index into the op's keys
  };
  struct InFlight {
    Leg leg;
    int64_t deadline_us;
  };

  struct Upstream {
    uint64_t slot = 0;  // ~0 for the backup
    std::string host;
    uint16_t port = 0;
    std::unique_ptr<CircuitBreaker> breaker;
    bool dead = false;  // membership said so; breaker held open via MarkDead
    int fd = -1;
    bool connecting = false;
    int64_t connect_deadline_us = 0;
    bool want_write = false;     // EPOLLOUT registered
    bool failed_before = false;  // the next connect counts as a reconnect
    bool dirty = false;          // listed in dirty_
    std::deque<Leg> queued;      // waiting for the connect to finish
    std::deque<InFlight> inflight;
    std::string out;  // bytes written to the socket only partially
    size_t out_sent = 0;
    net::ReplyReader reader;
    KeyFetch value;  // VALUE block of the get reply being read (staging)
  };

  bool is_backup(const Upstream& up) const { return &up == backup_.get(); }
  SimTime Now() const;
  /// Whether `up`'s breaker admits a leg now. The clock is read only for an
  /// open breaker, so the route path costs no clock read while all are
  /// closed.
  bool BreakerAllows(const Upstream& up) const {
    return up.breaker->closed() || up.breaker->Allow(Now());
  }
  /// Slot `slot`'s upstream when it admits a leg now; null (counting a
  /// breaker skip) when it is dead or its breaker is open, and null when the
  /// slot has no upstream.
  Upstream* Admit(uint64_t slot);
  void TraceBreaker(uint64_t slot, BreakerState before, BreakerState after);
  void RecordSuccess(Upstream& up);

  OpId NewOp(OpKind kind, uint64_t tag);
  /// Counts one leg of `op` resolved; finishes the op after its last leg.
  void ResolveLeg(OpId op);
  void FinishOp(OpId op);
  /// Homes a status-line op on its key's slot (or the backup rung).
  void RouteLine(OpId op, std::string_view key);

  void MarkDirty(Upstream& up);
  void Enqueue(Upstream& up, Leg leg);
  /// The backup rung for a get key / a status-line command whose primary
  /// was skipped or failed; resolves it as unreachable when no backup can
  /// take it.
  void GetToBackup(Leg leg);
  void LineToBackup(Leg leg);

  /// Connects if needed, moves every queued leg onto the wire, and sends.
  void Pump(Upstream& up);
  void StartConnect(Upstream& up);
  void FinishConnect(Upstream& up);
  void OnConnected(Upstream& up);
  void FlushOut(Upstream& up);
  void ReadReady(Upstream& up);
  void UpdateEpoll(Upstream& up);
  /// Closes the connection and re-routes every unresolved leg down the
  /// ladder. `failure` adds the breaker failure and absorbed count (a
  /// transport failure with legs at stake); otherwise it is a quiet reset.
  void Disconnect(Upstream& up, bool failure);
  /// Disconnects `up` and forgets it (slot removal, backup replacement).
  void Retire(Upstream& up);
  /// One engine round: an epoll pass over the upstream sockets waiting up
  /// to `timeout_ms` (skipped unless `probe`), then deadlines, then sends.
  void RunRound(bool probe, int timeout_ms);
  void ExpireDeadlines();
  void PumpDirty();
  /// next_deadline_us() without the finished-ops term (what Wait() sleeps
  /// on: ops already finished do not need another round).
  int64_t NextIoDeadlineUs() const;

  // net::ReplyReader::Handler (the upstream being read is reading_).
  void OnValue(const net::ReplyReader::Value& value) override;
  bool OnReply(net::ReplyReader::Status status, std::string_view line) override;

  UpstreamPoolConfig config_;
  EventTracer* tracer_;
  MetricsRegistry own_registry_;  // a pool built without a registry
  MetricsRegistry* registry_;
  // proxy/* counters, resolved once from registry_.
  Counter* absorbed_failures_;
  Counter* reconnects_;
  Counter* breaker_skips_;
  Counter* backup_served_;
  Counter* unreachable_;
  Gauge* generation_gauge_;
  Gauge* nodes_gauge_;  // nodes_.size(), set wherever a slot is added/removed

  ConsistentHashRing ring_;
  std::map<uint64_t, Upstream> nodes_;
  std::unique_ptr<Upstream> backup_;
  /// Wall anchor for the breakers' SimTime clock (proxy-relative micros).
  int64_t epoch_us_ = 0;

  int epoll_fd_ = -1;
  std::deque<Op> ops_;  // stable addresses; slots reused via free_ops_
  std::vector<OpId> free_ops_;
  std::vector<uint64_t> finished_;  // tags of finished ops
  std::vector<Upstream*> dirty_;  // upstreams with legs or bytes to send
  // Reused by SubmitGet: one breaker decision per owning slot, and the keys
  // that fall to the backup.
  std::vector<std::pair<uint64_t, Upstream*>> route_;
  std::vector<uint32_t> fallen_;
  Upstream* reading_ = nullptr;   // upstream whose replies are being fed
  size_t resolved_in_read_ = 0;   // legs answered by the current read pass
  std::unique_ptr<char[]> rbuf_;  // recv scratch shared by all upstreams
};

}  // namespace spotcache::proxy
