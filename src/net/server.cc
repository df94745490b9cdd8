#include "src/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <thread>

#include "src/obs/exporters.h"
#include "src/util/heap_stats.h"
#include "src/util/logging.h"

namespace spotcache::net {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Concurrent scrape connections tolerated beyond max_connections: scrapes
/// must succeed while the cache listener is saturated, but stay bounded.
constexpr size_t kMaxMetricsConns = 32;

/// Unanswered requests a deferred-reply connection may queue before the
/// server stops reading it (a pipelined client batch of 256 fits 4 times).
constexpr size_t kMaxPendingReplies = 1024;

}  // namespace

NetServer::NetServer(const NetServerConfig& config, RequestHandler* handler,
                     Obs* obs)
    : config_(config),
      handler_(handler),
      handler_fd_(handler->poll_fd()),
      deferred_(handler_fd_ >= 0),
      obs_(obs),
      clock_([] { return static_cast<int64_t>(::time(nullptr)); }) {
  const RequestTelemetryConfig& tc = config_.telemetry;
  if (tc.span_sample_every != 0 || tc.latency_sample_every != 0) {
    telemetry_ = std::make_unique<RequestTelemetry>(tc, obs);
    handler_->set_telemetry(telemetry_.get());
  }
  if (obs_ != nullptr) {
    conns_opened_ = obs_->registry.GetCounter("net/conns_opened");
    conns_closed_ = obs_->registry.GetCounter("net/conns_closed");
    conns_rejected_ = obs_->registry.GetCounter("net/conns_rejected");
    bytes_in_ = obs_->registry.GetCounter("net/bytes_in");
    bytes_out_ = obs_->registry.GetCounter("net/bytes_out");
    slow_closes_ = obs_->registry.GetCounter("net/slow_consumer_closes");
    loop_iterations_ = obs_->registry.GetCounter("net/loop/iterations");
    loop_stalls_ = obs_->registry.GetCounter("net/loop/stalls");
    metrics_scrapes_ = obs_->registry.GetCounter("net/metrics_scrapes");
    loop_wait_hist_ = obs_->registry.GetHistogram("net/loop/wait_s");
    loop_work_hist_ = obs_->registry.GetHistogram("net/loop/work_s");
    pending_hw_gauge_ =
        obs_->registry.GetGauge("net/pending_out_high_water_bytes");
    conns_hw_gauge_ = obs_->registry.GetGauge("net/conns_high_water");
    conn_buffer_gauge_ = obs_->registry.GetGauge("net/conn_buffer_bytes");
  }
}

NetServer::~NetServer() {
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
    (void)conn;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
  if (metrics_listen_fd_ >= 0) {
    ::close(metrics_listen_fd_);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
  }
}

void NetServer::SetClock(std::function<int64_t()> now_unix) {
  clock_ = std::move(now_unix);
}

int64_t NetServer::NowUnix() const { return clock_(); }

int64_t NetServer::LoopMicros() const {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::microseconds>(now).count() -
         t0_us_;
}

void NetServer::Trace(
    const char* type,
    std::vector<std::pair<std::string, std::string>> fields) {
  if (obs_ == nullptr || !obs_->tracer.enabled()) {
    return;
  }
  obs_->tracer.Custom(SimTime::FromMicros(LoopMicros()), type,
                      std::move(fields));
}

int NetServer::OpenListener(uint16_t port, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
#ifdef SO_REUSEPORT
  if (config_.reuse_port) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }
#endif

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, config_.bind_host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, config_.listen_backlog) != 0 || !SetNonBlocking(fd)) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

bool NetServer::Start() {
  if (!config_.skip_cache_listener) {
    listen_fd_ = OpenListener(config_.port, &port_);
    if (listen_fd_ < 0) {
      return false;
    }
  }
  if (config_.metrics_port >= 0) {
    metrics_listen_fd_ =
        OpenListener(static_cast<uint16_t>(config_.metrics_port),
                     &metrics_port_);
    if (metrics_listen_fd_ < 0) {
      return false;
    }
  }

  recv_buf_.reset(new char[config_.recv_chunk]);
  PublishBufferBytes();

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (listen_fd_ >= 0) {
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      return false;
    }
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return false;
  }
  if (metrics_listen_fd_ >= 0) {
    ev.data.fd = metrics_listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, metrics_listen_fd_, &ev) != 0) {
      return false;
    }
  }
  return true;
}

bool NetServer::Run() {
  t0_us_ = 0;
  t0_us_ = LoopMicros();
  if (telemetry_ != nullptr) {
    // Span timestamps become "microseconds since Run() began" — the same
    // timeline Trace() stamps loop events with.
    telemetry_->SetOrigin(t0_us_);
  }
  const bool instrument = loop_iterations_ != nullptr;
  if (deferred_) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = handler_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, handler_fd_, &ev) != 0) {
      SPOTCACHE_LOG(kError) << "cannot poll the request handler: "
                            << strerror(errno);
      return false;
    }
  }
  bool ok = true;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    int timeout_ms = -1;
    if (deferred_) {
      // Sleep no longer than the handler's next deadline (rounded up, so
      // the deadline has passed when the loop wakes for it).
      const int64_t deadline = handler_->next_deadline_us();
      if (deadline >= 0) {
        timeout_ms = static_cast<int>(std::max<int64_t>(
            0, (deadline - RequestTelemetry::NowMicros() + 999) / 1000));
      }
    }
    bool handler_io = false;
    const int64_t t_wait0 = instrument ? RequestTelemetry::NowMicros() : 0;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    const int64_t t_work0 = instrument ? RequestTelemetry::NowMicros() : 0;
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SPOTCACHE_LOG(kError) << "epoll_wait failed: " << strerror(errno);
      ok = false;
      break;
    }
    for (int i = 0;
         i < n && !stop_requested_.load(std::memory_order_relaxed); ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptReady(listen_fd_, /*metrics=*/false);
        continue;
      }
      if (fd == metrics_listen_fd_) {
        AcceptReady(metrics_listen_fd_, /*metrics=*/true);
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t tick = 0;
        (void)!::read(wake_fd_, &tick, sizeof(tick));
        continue;
      }
      if (fd == handler_fd_) {
        handler_io = true;
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) {
        continue;  // closed earlier in this batch
      }
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn, "hangup");
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        ConnReadable(conn);
        // The connection may be gone now; re-check before write handling.
        if (conns_.find(fd) == conns_.end()) {
          continue;
        }
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        ConnWritable(conn);
      }
    }
    if (deferred_) {
      ServiceHandler(handler_io);
    }
    if (reactor_.exchange != nullptr) {
      // Connections handed over while we were waiting.
      reactor_.exchange->ServiceInbox(reactor_.self);
    }
    if (reload_requested_.load(std::memory_order_relaxed)) {
      reload_requested_.store(false, std::memory_order_relaxed);
      if (on_reload_) {
        on_reload_();  // loop context: safe to touch handler state
      }
    }
    MaybeDumpTelemetry();
    if (instrument) {
      const int64_t t_end = RequestTelemetry::NowMicros();
      loop_wait_hist_->Record(static_cast<double>(t_work0 - t_wait0) * 1e-6);
      loop_work_hist_->Record(static_cast<double>(t_end - t_work0) * 1e-6);
      loop_iterations_->Increment();
      if (config_.stall_threshold_us > 0 &&
          t_end - t_work0 > config_.stall_threshold_us) {
        loop_stalls_->Increment();
        Trace("loop_stall",
              {{"work_us", EventTracer::JsonNumber(t_end - t_work0)},
               {"events", EventTracer::JsonNumber(static_cast<int64_t>(n))}});
      }
    }
  }
  if (ShardExchange* ex = reactor_.exchange; ex != nullptr) {
    // Shutdown drain: the dispatcher may still be blocked awaiting a handoff
    // we owe it. Announce our exit, then keep servicing our inbox until
    // every reactor has left its loop — after which no op can be
    // outstanding (each op is awaited by its sender).
    ex->NotifyStopped();
    while (!ex->AllStopped()) {
      ex->ServiceInbox(reactor_.self);
      std::this_thread::yield();
    }
    ex->ServiceInbox(reactor_.self);
  }
  return ok;
}

void NetServer::Stop() {
  // Async-signal-safe: one relaxed atomic store + one write(2). Sticky, so a
  // SIGTERM arriving between the readiness line and Run() entry still stops
  // the loop (the fleet supervisor terminates fast enough to hit that
  // window).
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::RequestTelemetryDump() {
  // Async-signal-safe: one relaxed atomic store + one write(2).
  dump_requested_.store(true, std::memory_order_relaxed);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::SetReloadHandler(std::function<void()> on_reload) {
  on_reload_ = std::move(on_reload);
}

void NetServer::RequestReload() {
  // Async-signal-safe: one relaxed atomic store + one write(2).
  reload_requested_.store(true, std::memory_order_relaxed);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::MaybeDumpTelemetry() {
  const bool requested = dump_requested_.load(std::memory_order_relaxed);
  const bool slow = telemetry_ != nullptr && telemetry_->dump_pending();
  if (!requested && !slow) {
    return;
  }
  const int64_t now = LoopMicros();
  if (!requested && now - last_auto_dump_us_ < 1'000'000) {
    return;  // debounced; dump_pending stays set and retries next iteration
  }
  dump_requested_.store(false, std::memory_order_relaxed);
  last_auto_dump_us_ = now;
  if (telemetry_ != nullptr) {
    telemetry_->clear_dump_pending();
  }
  DumpTelemetry(requested ? "signal" : "slow_request");
}

void NetServer::DumpTelemetry(const char* reason) {
  // Shards append to one shared span file; the dump mutex keeps each dump's
  // JSONL lines contiguous.
  std::unique_lock<std::mutex> dump_lock;
  if (reactor_.dump_mu != nullptr) {
    dump_lock = std::unique_lock<std::mutex>(*reactor_.dump_mu);
  }
  size_t spans = 0;
  if (telemetry_ != nullptr && !config_.span_dump_path.empty()) {
    spans = telemetry_->ring_size();
    std::ofstream out(config_.span_dump_path, std::ios::app);
    if (out) {
      out << telemetry_->RenderFlightRecorderJsonl();
    } else {
      SPOTCACHE_LOG(kWarn) << "flight-recorder dump failed: "
                           << config_.span_dump_path;
    }
  }
  if (!config_.metrics_dump_path.empty() && obs_ != nullptr) {
    WriteStringToFile(config_.metrics_dump_path, RenderMetrics());
  }
  SPOTCACHE_LOG(kInfo) << "telemetry dump (" << reason << "): " << spans
                       << " spans";
  Trace("telemetry_dump",
        {{"reason", EventTracer::JsonString(reason)},
         {"spans", EventTracer::JsonNumber(static_cast<int64_t>(spans))}});
}

void NetServer::AcceptReady(int listen_fd, bool metrics) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN or transient accept error: wait for the next event
    }
    // Hash-dispatch accept fallback: the one reactor with both a cache
    // listener and an exchange accepts for everyone and round-robins fds to
    // the others (kAdoptConn, awaited so the fd has exactly one owner at any
    // instant).
    if (ShardExchange* ex = reactor_.exchange; !metrics && ex != nullptr) {
      const uint32_t target = dispatch_rr_++ % ex->shard_count();
      if (target != reactor_.self) {
        CrossShardOp op;
        op.kind = CrossShardOp::Kind::kAdoptConn;
        op.fd = fd;
        ex->Submit(reactor_.self, target, &op);
        ex->Wake(target);
        ex->AwaitOp(reactor_.self, &op);
        continue;
      }
    }
    RegisterConn(fd, metrics);
  }
}

void NetServer::RegisterConn(int fd, bool metrics) {
  // Scrape connections have their own small cap so metrics stay reachable
  // even when the cache listener is at max_connections, and vice versa.
  const bool over_limit = metrics ? metrics_conns_ >= kMaxMetricsConns
                                  : conns_.size() - metrics_conns_ >=
                                        config_.max_connections;
  if (over_limit) {
    if (!metrics && conns_rejected_ != nullptr) {
      conns_rejected_->Increment();
    }
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->id = next_conn_id_++;
  conn->is_metrics = metrics;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  if (metrics) {
    ++metrics_conns_;
  } else {
    if (conns_opened_ != nullptr) {
      conns_opened_->Increment();
    }
    Trace("conn_open", {{"conn", EventTracer::JsonNumber(
                                     static_cast<int64_t>(conn->id))}});
  }
  if (deferred_ && !metrics) {
    conns_by_id_.emplace(conn->id, conn.get());
  }
  CountBuffers(conn.get());
  conns_.emplace(fd, std::move(conn));
  if (conns_.size() > conns_high_water_) {
    conns_high_water_ = conns_.size();
    if (conns_hw_gauge_ != nullptr) {
      conns_hw_gauge_->Set(static_cast<double>(conns_high_water_));
    }
  }
}

void NetServer::ExecuteShardOp(CrossShardOp* op) {
  if (op->kind == CrossShardOp::Kind::kAdoptConn) {
    RegisterConn(op->fd, /*metrics=*/false);
  }
  op->done.store(true, std::memory_order_release);
}

std::string NetServer::RenderMetrics() {
  // What the handler serves from and the heap are shared by every reactor.
  // Only the rendering reactor sets their gauges, so the cross-reactor sum
  // counts each once.
  handler_->PublishGauges();
  const HeapStats heap = ReadHeapStats();
  MetricsRegistry& reg = obs_->registry;
  reg.GetGauge("net/heap_in_use_bytes")->Set(static_cast<double>(heap.in_use));
  reg.GetGauge("net/heap_free_held_bytes")
      ->Set(static_cast<double>(heap.free_held));
  reg.GetGauge("net/heap_mmapped_bytes")->Set(static_cast<double>(heap.mmapped));
  return reactor_.registries != nullptr ? ToPrometheusText(*reactor_.registries)
                                        : ToPrometheusText(reg);
}

void NetServer::ConnReadable(Connection* conn) {
  if (conn->is_metrics) {
    MetricsReadable(conn);
    return;
  }
  RequestTelemetry* t = telemetry_.get();
  const int64_t now = NowUnix();
  bool batch_open = false;
  size_t read_total = 0;
  while (WantsInput(conn) && !conn->close_after_flush) {
    const std::span<char> room =
        conn->parser.Borrow(recv_buf_.get(), config_.recv_chunk);
    const ssize_t n = ::recv(conn->fd, room.data(), room.size(), 0);
    const int err = n < 0 ? errno : 0;  // Release() may allocate
    if (n > 0) {
      conn->parser.Commit(static_cast<size_t>(n));
      if (bytes_in_ != nullptr) {
        bytes_in_->Increment(n);
      }
      if (!batch_open && t != nullptr) {
        t->BeginBatch(conn->id);
      }
      batch_open = true;
      Execute(conn, t, now);
      // The receive buffer is reused by the next read (and the next
      // connection): keep only the unparsed tail.
      conn->parser.Release();
      read_total += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < room.size() ||
          read_total >= config_.recv_chunk) {
        // Drained the socket, or read a buffer's worth. Requests run
        // between reads, so a client sending faster than they run would
        // keep the loop here, its replies piling up in the arena; the rest
        // waits for the next (level-triggered) event, after this flush and
        // the other connections' turns.
        break;
      }
      continue;
    }
    conn->parser.Release();
    if (err == EAGAIN || err == EWOULDBLOCK) {
      break;
    }
    if (err == EINTR) {
      continue;
    }
    if (n == 0 && deferred_ && !conn->slots.empty()) {
      // Replies are still owed: stop reading, answer, then close.
      conn->peer_eof = true;
      break;
    }
    if (batch_open && t != nullptr) {
      t->EndBatch(0);
    }
    CloseConn(conn, n == 0 ? "eof" : "read_error");
    return;
  }
  if (!batch_open && t != nullptr) {
    t->BeginBatch(conn->id);
  }
  FlushTimed(conn, t);
}

void NetServer::MetricsReadable(Connection* conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->http_in.append(buf, static_cast<size_t>(n));
      if (conn->http_in.size() > 16 * 1024) {
        CloseConn(conn, "metrics_overflow");
        return;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(conn, "eof");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseConn(conn, "read_error");
    return;
  }
  // Any complete HTTP request header gets the metrics snapshot; the path is
  // ignored (the endpoint serves exactly one document).
  if (conn->http_responded ||
      conn->http_in.find("\r\n\r\n") == std::string::npos) {
    return;
  }
  conn->http_responded = true;
  if (metrics_scrapes_ != nullptr) {
    metrics_scrapes_->Increment();
  }
  const std::string body = obs_ != nullptr ? RenderMetrics() : std::string();
  char header[160];
  const int header_len = snprintf(
      header, sizeof(header),
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      body.size());
  conn->pending_out.append(header, static_cast<size_t>(header_len));
  conn->pending_out.append(body);
  conn->close_after_flush = true;
  Flush(conn);
}

void NetServer::Execute(Connection* conn, RequestTelemetry* t, int64_t now) {
  if (deferred_) {
    StartDeferred(conn, t, now);
    return;
  }
  for (;;) {
    if (t != nullptr) {
      t->BeginRequest();
    }
    const ParseStatus st = conn->parser.Next();
    if (st == ParseStatus::kNeedMore) {
      if (t != nullptr) {
        t->OnAbandoned();
      }
      break;
    }
    if (st == ParseStatus::kError) {
      if (t != nullptr) {
        t->OnParsed(TelemetryOp::kOther, 0);
      }
      handler_->HandleParseError(conn->parser.error(), &assembler_);
      if (t != nullptr) {
        t->OnExecuted(RequestOutcome::kError, 0);
      }
      Trace("protocol_error",
            {{"conn",
              EventTracer::JsonNumber(static_cast<int64_t>(conn->id))},
             {"kind",
              EventTracer::JsonString(ToString(conn->parser.error()))}});
      continue;
    }
    if (!handler_->Handle(conn->parser.request(), now, &assembler_)) {
      conn->close_after_flush = true;
      break;
    }
  }
}

bool NetServer::WantsInput(const Connection* conn) {
  return !conn->quit_seen && !conn->peer_eof &&
         conn->slots.size() < kMaxPendingReplies;
}

void NetServer::StartDeferred(Connection* conn, RequestTelemetry* t,
                              int64_t now) {
  while (!conn->quit_seen && conn->slots.size() < kMaxPendingReplies) {
    if (t != nullptr) {
      t->BeginRequest();
    }
    const ParseStatus st = conn->parser.Next();
    if (st == ParseStatus::kNeedMore) {
      if (t != nullptr) {
        t->OnAbandoned();
      }
      break;
    }
    Connection::Slot slot;
    if (st == ParseStatus::kError) {
      if (t != nullptr) {
        t->OnParsed(TelemetryOp::kOther, 0);
      }
      Trace("protocol_error",
            {{"conn",
              EventTracer::JsonNumber(static_cast<int64_t>(conn->id))},
             {"kind",
              EventTracer::JsonString(ToString(conn->parser.error()))}});
      if (conn->slots.empty()) {
        handler_->HandleParseError(conn->parser.error(), &assembler_);
        if (t != nullptr) {
          t->OnExecuted(RequestOutcome::kError, 0);
        }
        continue;
      }
      slot.ready = true;
      slot.parse_error = true;
      slot.error = conn->parser.error();
    } else {
      const TextRequest& req = conn->parser.request();
      conn->quit_seen = req.verb == Verb::kQuit;
      const ReplySlot name{conn->id, conn->slots_base + conn->slots.size()};
      slot.ready = handler_->Start(req, now, name, &slot.handle);
      if (slot.ready && conn->slots.empty()) {
        // Nothing queued ahead: the reply goes straight out.
        if (!handler_->Finish(slot.handle, &assembler_)) {
          conn->close_after_flush = true;
        }
        continue;
      }
    }
    slot.parked = t != nullptr ? t->Suspend() : 0;
    conn->slots.push_back(slot);
  }
  if (conn->peer_eof && conn->slots.empty()) {
    conn->close_after_flush = true;
  }
}

void NetServer::ReleaseReady(Connection* conn, RequestTelemetry* t) {
  while (!conn->slots.empty() && conn->slots.front().ready) {
    const Connection::Slot slot = conn->slots.front();
    conn->slots.pop_front();
    ++conn->slots_base;
    if (t != nullptr) {
      t->Resume(slot.parked);
    }
    if (slot.parse_error) {
      handler_->HandleParseError(slot.error, &assembler_);
      if (t != nullptr) {
        t->OnExecuted(RequestOutcome::kError, 0);
      }
    } else if (!handler_->Finish(slot.handle, &assembler_)) {
      conn->close_after_flush = true;  // quit: nothing was parsed after it
    }
  }
}

void NetServer::ServiceHandler(bool io_ready) {
  ready_slots_.clear();
  handler_->Service(io_ready, &ready_slots_);
  for (const ReplySlot& ready : ready_slots_) {
    auto it = conns_by_id_.find(ready.conn_id);
    if (it == conns_by_id_.end()) {
      continue;  // closed meanwhile; its requests were dropped
    }
    Connection* conn = it->second;
    conn->slots[ready.seq - conn->slots_base].ready = true;
    if (!conn->release_listed) {
      conn->release_listed = true;
      releasing_.push_back(conn->id);
    }
  }
  RequestTelemetry* t = telemetry_.get();
  for (const uint64_t id : releasing_) {
    auto it = conns_by_id_.find(id);
    if (it == conns_by_id_.end()) {
      continue;
    }
    Connection* conn = it->second;
    conn->release_listed = false;
    if (!conn->slots.front().ready) {
      continue;  // its head is still pending
    }
    if (t != nullptr) {
      t->BeginBatch(conn->id);
    }
    const bool was_full = conn->slots.size() >= kMaxPendingReplies;
    ReleaseReady(conn, t);
    if (was_full || conn->peer_eof) {
      // Room again (or the last replies are out): start what was buffered,
      // then keep only what is still unparsed.
      StartDeferred(conn, t, NowUnix());
      conn->parser.Release();
    }
    FlushTimed(conn, t);
  }
  releasing_.clear();
}

void NetServer::FlushTimed(Connection* conn, RequestTelemetry* t) {
  // Time the flush only when spans are waiting for their write stamp —
  // unsampled batches skip both clock reads.
  if (t != nullptr && t->batch_has_spans()) {
    const int64_t w0 = RequestTelemetry::NowMicros();
    Flush(conn);
    t->EndBatch(RequestTelemetry::NowMicros() - w0);
  } else {
    Flush(conn);
    if (t != nullptr) {
      t->EndBatch(0);
    }
  }
}

void NetServer::Flush(Connection* conn) {
  // Drain any previously buffered bytes first to preserve ordering.
  while (conn->pending_sent < conn->pending_out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->pending_out.data() + conn->pending_sent,
               conn->pending_out.size() - conn->pending_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->pending_sent += static_cast<size_t>(n);
      if (bytes_out_ != nullptr) {
        bytes_out_->Increment(n);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConn(conn, "write_error");
    return;
  }
  if (conn->pending_sent == conn->pending_out.size()) {
    std::string().swap(conn->pending_out);  // sent: give the heap back
    conn->pending_sent = 0;
  }

  const auto& iov = assembler_.iovecs();
  size_t iov_index = 0;
  size_t iov_offset = 0;
  if (conn->pending_out.empty()) {
    while (iov_index < iov.size()) {
      // writev caps at IOV_MAX vectors per call; loop in windows.
      iovec local[64];
      int cnt = 0;
      for (size_t i = iov_index; i < iov.size() && cnt < 64; ++i, ++cnt) {
        local[cnt] = iov[i];
        if (cnt == 0 && iov_offset > 0) {
          local[0].iov_base = static_cast<char*>(local[0].iov_base) + iov_offset;
          local[0].iov_len -= iov_offset;
        }
      }
      const ssize_t n = ::writev(conn->fd, local, cnt);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        CloseConn(conn, "write_error");
        return;
      }
      if (bytes_out_ != nullptr) {
        bytes_out_->Increment(n);
      }
      size_t left = static_cast<size_t>(n);
      while (left > 0 && iov_index < iov.size()) {
        const size_t avail = iov[iov_index].iov_len - iov_offset;
        if (left >= avail) {
          left -= avail;
          ++iov_index;
          iov_offset = 0;
        } else {
          iov_offset += left;
          left = 0;
        }
      }
    }
  }
  // Anything unsent gets copied out of the assembler (whose pins die on
  // Clear) into the pending buffer.
  for (size_t i = iov_index; i < iov.size(); ++i) {
    const char* base = static_cast<const char*>(iov[i].iov_base);
    size_t len = iov[i].iov_len;
    if (i == iov_index && iov_offset > 0) {
      base += iov_offset;
      len -= iov_offset;
    }
    conn->pending_out.append(base, len);
  }
  assembler_.Clear();
  CountBuffers(conn);

  const size_t backlog = conn->pending_out.size() - conn->pending_sent;
  if (backlog > pending_out_high_water_) {
    pending_out_high_water_ = backlog;
    if (pending_hw_gauge_ != nullptr) {
      pending_hw_gauge_->Set(static_cast<double>(backlog));
    }
  }
  if (backlog > config_.max_output_buffer) {
    if (slow_closes_ != nullptr) {
      slow_closes_->Increment();
    }
    CloseConn(conn, "slow_consumer");
    return;
  }
  if (conn->pending_out.empty() && conn->close_after_flush) {
    CloseConn(conn, "quit");
    return;
  }
  const bool want_write = !conn->pending_out.empty();
  const bool reading = WantsInput(conn);
  if (want_write != conn->want_write || reading != conn->reading) {
    conn->want_write = want_write;
    conn->reading = reading;
    UpdateEpoll(conn);
  }
}

void NetServer::CountBuffers(Connection* conn) {
  if (!conn->is_metrics) {
    // A short std::string keeps its bytes inline: only a larger one is heap.
    const size_t out = conn->pending_out.capacity();
    const size_t bytes = conn->parser.buffer_capacity() +
                         (out > std::string().capacity() ? out + 1 : 0);
    conn_buffer_bytes_ = conn_buffer_bytes_ - conn->buffer_bytes + bytes;
    conn->buffer_bytes = bytes;
  }
  PublishBufferBytes();
}

void NetServer::PublishBufferBytes() {
  if (conn_buffer_gauge_ != nullptr) {
    conn_buffer_gauge_->Set(static_cast<double>(
        config_.recv_chunk + assembler_.arena_bytes() + conn_buffer_bytes_));
  }
}

void NetServer::ConnWritable(Connection* conn) { Flush(conn); }

void NetServer::UpdateEpoll(Connection* conn) {
  epoll_event ev{};
  ev.events = (conn->reading ? EPOLLIN : 0u) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::CloseConn(Connection* conn, const char* reason) {
  assembler_.Clear();
  if (conn->is_metrics) {
    --metrics_conns_;
  } else {
    conn_buffer_bytes_ -= conn->buffer_bytes;
    PublishBufferBytes();
    Trace("conn_close",
          {{"conn", EventTracer::JsonNumber(static_cast<int64_t>(conn->id))},
           {"reason", EventTracer::JsonString(reason)}});
    if (conns_closed_ != nullptr) {
      conns_closed_->Increment();
    }
  }
  if (deferred_ && !conn->is_metrics) {
    // Late completions must never reach this connection: release every
    // request it still owed a reply, and forget its id.
    for (size_t i = 0; i < conn->slots.size(); ++i) {
      const Connection::Slot& slot = conn->slots[i];
      if (!slot.parse_error) {
        handler_->Drop(slot.handle);
      }
      if (telemetry_ != nullptr) {
        telemetry_->Discard(slot.parked);
      }
    }
    conns_by_id_.erase(conn->id);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
}

}  // namespace spotcache::net
