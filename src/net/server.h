// NetServer: one reactor of the non-blocking TCP serving surface.
//
// Single-threaded epoll loop (level-triggered), one state machine per
// connection. The reactor owns one receive buffer (`recv_chunk` bytes) and
// one ResponseAssembler, and a connection holds only the bytes it still
// owes: bytes are recv()'d into the reactor's buffer and parsed there in
// place (RequestParser::Borrow/Commit), every complete request is executed
// by the RequestHandler the server was built with, and the parser's
// Release() then keeps just the unparsed tail, sized to it. A declared
// payload larger than the receive buffer is read straight into a buffer of
// its own size. Reads repeat until the socket is drained or a buffer's
// worth was read (the rest waits for the next event, so a client that
// sends faster than its requests run cannot pile up replies), and the
// event's replies, rendered into the reactor's arena, go out in one writev
// over its iovecs; the arena is cleared at the end of every flush, before
// the loop turns to another connection. The server is transport only: it holds no
// store and counts no request facts of its own. Both serving binaries run
// NetServers through ShardedServer (sharded_server.h), which builds each
// reactor's handler; tests and benches also build one directly around a
// handler. Short writes spill into a per-connection pending buffer drained
// on EPOLLOUT and freed once sent; a buffer that exceeds
// `max_output_buffer` marks a slow consumer, and the connection is dropped
// (counted + traced) rather than ballooning memory. The heap of the
// reactor's receive buffer and arena plus its cache connections' held
// tails and pending output is the `net/conn_buffer_bytes` gauge: each
// reactor updates its own where those buffers change and when a connection
// closes, so the scrape's cross-reactor sum is exact without a timer.
//
// Observability: `net/*` transport counters and loop histograms beside
// whatever the handler counts, JSONL connection events stamped with
// microseconds since start, and a RequestTelemetry that samples request
// spans and feeds per-(op, outcome) latency histograms
// (request_telemetry.h). A loop iteration whose work phase exceeds
// `stall_threshold_us` counts as a stall and emits a `loop_stall` event.
// With `metrics_port >= 0` a second listener in the same loop answers any
// HTTP request with RenderMetrics(). Nothing is published in the
// background, so an idle loop sleeps in epoll_wait until an event arrives.
// RequestTelemetryDump() (and a request slower than `slow_request_us`,
// debounced to one per second) appends the span ring to `span_dump_path`
// and writes `metrics_dump_path` from loop context.
//
// Deferred replies (the proxy seam, see request_handler.h): a handler with a
// poll_fd() may leave requests pending. Each client connection then keeps an
// ordered queue of reply slots; replies leave strictly in request order (a
// slot completing early waits for its predecessors, and local answers,
// parse errors, quit and flush_all queue behind earlier slots). The
// handler's fd sits in this loop's epoll set, the loop sleeps no longer than
// the handler's next deadline, and after every iteration the handler's
// Service() reports completed slots, whose connections are then flushed.
// Late completions find their connection by id, so a client that closed
// with requests in flight is never touched. A connection holding
// kMaxPendingReplies unanswered requests stops being read until replies
// drain. A synchronous handler (ServerCore) never touches any of this.
//
// Run() owns the calling thread until Stop() (thread-safe, eventfd wakeup)
// or a fatal listener error. Expiry time is injectable (`SetClock`) so tests
// drive memcached expiry semantics deterministically over real sockets.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/protocol.h"
#include "src/net/request_handler.h"
#include "src/net/response.h"
#include "src/net/sharding.h"
#include "src/obs/obs.h"
#include "src/obs/request_telemetry.h"

namespace spotcache::net {

struct NetServerConfig {
  std::string bind_host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; see NetServer::port() after Start()
  int listen_backlog = 512;
  size_t max_connections = 1024;
  /// Size of the reactor's one receive buffer, and the most one read event
  /// takes from a connection before its replies are flushed. Allocated
  /// once per reactor at Start(); connections do not hold one.
  size_t recv_chunk = 64 * 1024;
  /// Slow-consumer cap on buffered unsent bytes before the connection drops.
  size_t max_output_buffer = 8 * 1024 * 1024;

  /// Request-span / latency sampling. Setting both sample periods to 0
  /// disables the telemetry entirely (no per-request sampler step) — the
  /// configuration bench_net_loopback uses as its uninstrumented baseline.
  RequestTelemetryConfig telemetry;
  /// A loop iteration whose work phase (everything between two epoll_waits)
  /// exceeds this is counted as a stall. <= 0 disables stall detection.
  int64_t stall_threshold_us = 10'000;
  /// Prometheus scrape listener: -1 = off, 0 = ephemeral port (see
  /// metrics_port() after Start()), else the fixed port to bind.
  int metrics_port = -1;
  /// Flight-recorder dump target (JSONL, appended per dump). Empty skips
  /// the span dump (the in-memory ring still fills).
  std::string span_dump_path;
  /// Metrics snapshot dump target (Prometheus text, overwritten per dump).
  std::string metrics_dump_path;

  /// Sharded serving: bind the cache listener with SO_REUSEPORT so N shard
  /// listeners share one port (the kernel spreads connections by 4-tuple).
  bool reuse_port = false;
  /// Hash-dispatch fallback: this shard opens no cache listener of its own
  /// and only serves connections the dispatcher shard hands over.
  bool skip_cache_listener = false;
};

/// One reactor's place in a multi-reactor server, as the transport sees it
/// (wired by ShardedServer; the default is a lone server).
struct ReactorContext {
  uint32_t self = 0;
  /// Connection handoff in the accept fallback (null under SO_REUSEPORT):
  /// the reactor that still has a cache listener accepts for everyone.
  ShardExchange* exchange = nullptr;
  /// The registries RenderMetrics sums; null renders this server's alone.
  const std::vector<const MetricsRegistry*>* registries = nullptr;
  /// Serializes flight-recorder dumps across reactors (shared span file).
  std::mutex* dump_mu = nullptr;
};

class NetServer {
 public:
  /// Serves `handler` (non-owning; it must outlive the server). A handler
  /// with a poll_fd() gets deferred replies (see request_handler.h).
  NetServer(const NetServerConfig& config, RequestHandler* handler,
            Obs* obs = nullptr);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens (cache port + optional metrics port). Returns false
  /// (with errno intact) on failure.
  bool Start();
  /// The bound port (after Start(); useful with port = 0).
  uint16_t port() const { return port_; }
  /// The bound metrics port (0 when the scrape listener is off).
  uint16_t metrics_port() const { return metrics_port_; }

  /// Serves until Stop(). Returns false if the loop died on a fatal error.
  bool Run();
  /// Thread-safe shutdown request.
  void Stop();

  /// Requests a flight-recorder + metrics dump from loop context.
  /// Async-signal-safe (atomic store + eventfd write): signal handlers for
  /// SIGUSR1/SIGHUP call this directly.
  void RequestTelemetryDump();

  /// Installs the loop-context reload callback RequestReload() triggers.
  /// Must be called before Run(); runs on the loop thread between batches.
  void SetReloadHandler(std::function<void()> on_reload);

  /// Requests a config reload from loop context. Async-signal-safe (atomic
  /// store + eventfd write): the SIGHUP handler calls this directly.
  void RequestReload();

  /// Unix-seconds clock used for expiry (defaults to the wall clock).
  void SetClock(std::function<int64_t()> now_unix);

  /// Prometheus text of the listed registries summed (this one alone when
  /// unsharded), after the handler's gauges and the heap gauges are set:
  /// what the scrape, the metrics dump and a shutdown snapshot write.
  /// Requires an Obs; call it on the loop thread, or after Run() has
  /// returned.
  std::string RenderMetrics();

  /// The serving-path telemetry, or nullptr when disabled by config.
  RequestTelemetry* telemetry() { return telemetry_.get(); }

  // --- Sharded serving (wired by ShardedServer; see sharded_server.h). ---

  /// Makes this server reactor ctx.self. Must run before Start().
  void ConfigureShard(const ReactorContext& ctx) { reactor_ = ctx; }
  /// This reactor's inbox executor (installed into the ShardExchange):
  /// adopts handed-over connections. Owning thread only.
  void ExecuteShardOp(CrossShardOp* op);
  /// The loop's eventfd (the exchange's wake target). Valid after Start().
  int wake_fd() const { return wake_fd_; }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    RequestParser parser;     // holds only an unparsed tail between reads
    std::string pending_out;  // unsent bytes after a short write
    size_t pending_sent = 0;  // consumed prefix of pending_out
    bool want_write = false;
    bool close_after_flush = false;
    /// Metrics-scrape connection: bytes go through a tiny HTTP/1.0
    /// responder instead of the memcached parser.
    bool is_metrics = false;
    std::string http_in;  // request bytes until the blank line (metrics only)
    bool http_responded = false;

    // Deferred replies (handlers with a poll_fd() only).
    struct Slot {
      uint64_t handle = 0;  // the handler's name for the request
      uint32_t parked = 0;  // its parked telemetry record (0 = unsampled)
      bool ready = false;
      bool parse_error = false;  // answered locally, in order
      ParseErrorKind error = ParseErrorKind::kUnknownCommand;
    };
    /// A FIFO of slots: a ring over a vector that allocates nothing until
    /// the first slot is queued (the synchronous path never queues one).
    class SlotQueue {
     public:
      bool empty() const { return count_ == 0; }
      size_t size() const { return count_; }
      /// The i-th oldest slot.
      Slot& operator[](size_t i) {
        return ring_[(head_ + i) & (ring_.size() - 1)];
      }
      Slot& front() { return (*this)[0]; }
      void pop_front() {
        head_ = (head_ + 1) & (ring_.size() - 1);
        --count_;
      }
      void push_back(const Slot& slot) {
        if (count_ == ring_.size()) {
          Grow();
        }
        (*this)[count_++] = slot;
      }

     private:
      void Grow() {
        std::vector<Slot> bigger(std::max<size_t>(4, ring_.size() * 2));
        for (size_t i = 0; i < count_; ++i) {
          bigger[i] = (*this)[i];
        }
        ring_ = std::move(bigger);
        head_ = 0;
      }

      std::vector<Slot> ring_;  // a power of two in size
      size_t head_ = 0;         // index of the oldest slot
      size_t count_ = 0;
    };
    SlotQueue slots;          // requests owed a reply, in request order
    uint64_t slots_base = 0;  // seq of slots.front()
    bool quit_seen = false;   // quit parsed: stop parsing, close once drained
    bool peer_eof = false;    // client finished sending: answer, then close
    bool reading = true;      // EPOLLIN registered
    bool release_listed = false;  // queued in releasing_
    size_t buffer_bytes = 0;  // its share of conn_buffer_bytes_
  };

  void AcceptReady(int listen_fd, bool metrics);
  /// Reads until the socket is drained or `recv_chunk` bytes were read,
  /// parsing each read in place in the reactor's receive buffer, then
  /// flushes once.
  void ConnReadable(Connection* conn);
  void MetricsReadable(Connection* conn);
  void ConnWritable(Connection* conn);
  /// Executes (or, with deferred replies, starts) the parsed requests,
  /// rendering replies into the reactor's arena.
  void Execute(Connection* conn, RequestTelemetry* t, int64_t now);
  /// Starts buffered requests until the parser runs dry, quit, or the slot
  /// queue is full; replies that are ready with nothing queued ahead of them
  /// are rendered straight into the assembler.
  void StartDeferred(Connection* conn, RequestTelemetry* t, int64_t now);
  /// Renders the ready slots at the head of the queue.
  void ReleaseReady(Connection* conn, RequestTelemetry* t);
  /// Runs the handler's I/O round and flushes the connections it completed.
  void ServiceHandler(bool io_ready);
  /// Whether the connection should be read (not paused, quit or at EOF).
  static bool WantsInput(const Connection* conn);
  /// End-of-batch flush with the span write-stamp bookkeeping.
  void FlushTimed(Connection* conn, RequestTelemetry* t);
  /// Registers an accepted/adopted fd as a live connection (nodelay, epoll,
  /// counters, traces), or closes it when over the connection cap.
  void RegisterConn(int fd, bool metrics);
  /// writev the pending buffer + the arena; buffers any remainder, then
  /// clears the arena.
  void Flush(Connection* conn);
  /// Re-counts a cache connection's held tail and pending output into
  /// conn_buffer_bytes_ (scrape connections are not counted), then
  /// publishes the gauge.
  void CountBuffers(Connection* conn);
  /// Sets `net/conn_buffer_bytes`: the receive buffer, the arena's blocks
  /// and conn_buffer_bytes_.
  void PublishBufferBytes();
  /// Closes the connection and clears the arena (which at any close holds
  /// only this connection's unsent replies).
  void CloseConn(Connection* conn, const char* reason);
  void UpdateEpoll(Connection* conn);
  /// Opens one non-blocking listener on bind_host:port; returns the fd (or
  /// -1) and writes the bound port through `bound_port`.
  int OpenListener(uint16_t port, uint16_t* bound_port);
  /// Loop-context dump service: honors RequestTelemetryDump() immediately,
  /// slow-request auto-dumps behind a 1 s debounce.
  void MaybeDumpTelemetry();
  void DumpTelemetry(const char* reason);
  int64_t NowUnix() const;
  /// Microseconds since Run() began (event timestamps).
  int64_t LoopMicros() const;
  void Trace(const char* type,
             std::vector<std::pair<std::string, std::string>> fields);

  NetServerConfig config_;
  RequestHandler* handler_;
  int handler_fd_;  // handler_->poll_fd(), registered in Run()
  /// handler_ defers replies (poll_fd() >= 0): the slot machinery is live.
  bool deferred_;
  std::unordered_map<uint64_t, Connection*> conns_by_id_;  // deferred only
  std::vector<ReplySlot> ready_slots_;  // ServiceHandler scratch
  std::vector<uint64_t> releasing_;     // conn ids with ready slots
  Obs* obs_;
  std::unique_ptr<RequestTelemetry> telemetry_;
  std::function<int64_t()> clock_;

  int listen_fd_ = -1;
  int metrics_listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
  /// Sticky stop request: set by Stop() (possibly from a signal handler,
  /// possibly before Run() has even been entered) and only ever read by the
  /// loop — a stop can never be lost to the start-up race.
  std::atomic<bool> stop_requested_{false};
  uint64_t next_conn_id_ = 1;
  int64_t t0_us_ = 0;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  size_t metrics_conns_ = 0;
  /// The reactor's receive buffer (`recv_chunk` bytes, not zero-filled) and
  /// reply arena, lent to one connection at a time.
  std::unique_ptr<char[]> recv_buf_;
  ResponseAssembler assembler_;

  std::atomic<bool> dump_requested_{false};
  int64_t last_auto_dump_us_ = -1'000'000;
  std::atomic<bool> reload_requested_{false};
  std::function<void()> on_reload_;

  // Sharded-serving state (inert in the single-threaded server).
  ReactorContext reactor_;
  uint32_t dispatch_rr_ = 0;

  // High-water marks mirrored into gauges (kept locally so the hot path
  // compares against a plain size_t, not a double).
  size_t pending_out_high_water_ = 0;
  size_t conns_high_water_ = 0;
  /// Heap held by the cache connections' tails and pending output.
  size_t conn_buffer_bytes_ = 0;

  Counter* conns_opened_ = nullptr;
  Counter* conns_closed_ = nullptr;
  Counter* conns_rejected_ = nullptr;
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Counter* slow_closes_ = nullptr;
  Counter* loop_iterations_ = nullptr;
  Counter* loop_stalls_ = nullptr;
  Counter* metrics_scrapes_ = nullptr;
  Histogram* loop_wait_hist_ = nullptr;
  Histogram* loop_work_hist_ = nullptr;
  Gauge* pending_hw_gauge_ = nullptr;
  Gauge* conns_hw_gauge_ = nullptr;
  Gauge* conn_buffer_gauge_ = nullptr;
};

}  // namespace spotcache::net
