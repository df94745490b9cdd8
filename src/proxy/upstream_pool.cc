#include "src/proxy/upstream_pool.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/routing/hash.h"

namespace spotcache::proxy {

namespace {

constexpr uint64_t kBackupSlot = ~0ULL;
constexpr size_t kRecvChunk = 64 * 1024;

/// Clears a fetch back to "unresolved", keeping its data buffer's capacity.
void ResetFetch(KeyFetch* fetch) {
  fetch->found = false;
  fetch->rung = ServedRung::kNone;
  fetch->flags = 0;
  fetch->cas = 0;
  fetch->data.clear();
}

int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

UpstreamPool::UpstreamPool(const UpstreamPoolConfig& config,
                           EventTracer* tracer, MetricsRegistry* registry)
    : config_(config),
      tracer_(tracer),
      registry_(registry != nullptr ? registry : &own_registry_),
      absorbed_failures_(registry_->GetCounter("proxy/absorbed_failures")),
      reconnects_(registry_->GetCounter("proxy/reconnects")),
      breaker_skips_(registry_->GetCounter("proxy/breaker_skips")),
      backup_served_(registry_->GetCounter("proxy/backup_served")),
      unreachable_(registry_->GetCounter("proxy/unreachable")),
      generation_gauge_(registry_->GetGauge("proxy/generation")),
      nodes_gauge_(registry_->GetGauge("proxy/nodes")),
      epoch_us_(WallUs()),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      rbuf_(new char[kRecvChunk]) {}

UpstreamPool::~UpstreamPool() {
  for (auto& [slot, node] : nodes_) {
    if (node.fd >= 0) {
      ::close(node.fd);
    }
  }
  if (backup_ != nullptr && backup_->fd >= 0) {
    ::close(backup_->fd);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

UpstreamPoolStats UpstreamPool::stats() const {
  const auto v = [](const Counter* c) {
    return static_cast<uint64_t>(c->value());
  };
  return UpstreamPoolStats{
      .absorbed_failures = v(absorbed_failures_),
      .reconnects = v(reconnects_),
      .breaker_skips = v(breaker_skips_),
      .backup_served = v(backup_served_),
      .unreachable = v(unreachable_),
  };
}

SimTime UpstreamPool::Now() const {
  return SimTime::FromMicros(WallUs() - epoch_us_);
}

// --- Membership. ------------------------------------------------------------

void UpstreamPool::SetNode(uint64_t slot, const std::string& host,
                           uint16_t port) {
  Upstream& node = nodes_[slot];
  if (node.breaker != nullptr && !node.dead && node.host == host &&
      node.port == port) {
    return;  // unchanged endpoint: keep the connection and breaker history
  }
  Disconnect(node, /*failure=*/false);
  node.slot = slot;
  node.host = host;
  node.port = port;
  node.dead = false;
  node.failed_before = false;
  // A replacement is a fresh process: it earns a fresh breaker.
  node.breaker =
      std::make_unique<CircuitBreaker>(config_.breaker, config_.seed, slot);
  ring_.SetNode(slot, 1.0);
  nodes_gauge_->Set(static_cast<double>(nodes_.size()));
}

void UpstreamPool::SetBackup(const std::string& host, uint16_t port) {
  if (backup_ != nullptr && backup_->host == host && backup_->port == port) {
    return;
  }
  if (backup_ != nullptr) {
    Retire(*backup_);
  }
  backup_ = std::make_unique<Upstream>();
  backup_->slot = kBackupSlot;
  backup_->host = host;
  backup_->port = port;
  // Slot id ~0 keeps the backup's breaker jitter decorrelated from primaries.
  backup_->breaker =
      std::make_unique<CircuitBreaker>(config_.breaker, config_.seed, ~0ULL);
}

void UpstreamPool::MarkDead(uint64_t slot) {
  auto it = nodes_.find(slot);
  if (it == nodes_.end()) {
    // An unknown-but-dead slot still owns ring range; keys homed there must
    // degrade to the backup instead of rehashing onto live primaries.
    Upstream& node = nodes_[slot];
    node.slot = slot;
    node.breaker =
        std::make_unique<CircuitBreaker>(config_.breaker, config_.seed, slot);
    node.dead = true;
    ring_.SetNode(slot, 1.0);
    nodes_gauge_->Set(static_cast<double>(nodes_.size()));
    return;
  }
  Upstream& node = it->second;
  Disconnect(node, /*failure=*/false);
  node.dead = true;
  const SimTime now = Now();
  const BreakerState before = node.breaker->state(now);
  for (int i = 0; i < config_.breaker.failure_threshold; ++i) {
    node.breaker->RecordFailure(now);
  }
  TraceBreaker(slot, before, node.breaker->state(now));
}

void UpstreamPool::RemoveNode(uint64_t slot) {
  auto it = nodes_.find(slot);
  if (it == nodes_.end()) {
    return;
  }
  Retire(it->second);
  nodes_.erase(it);
  ring_.RemoveNode(slot);
  nodes_gauge_->Set(static_cast<double>(nodes_.size()));
}

void UpstreamPool::ApplyMembership(const FleetMembership& m) {
  if (m.backup.has_value()) {
    SetBackup(m.backup->host, m.backup->port);
  } else if (backup_ != nullptr) {
    Retire(*backup_);
    backup_.reset();
  }
  // Drop slots the document no longer names.
  std::vector<uint64_t> stale;
  for (const auto& [slot, node] : nodes_) {
    bool named = false;
    for (const MemberNode& n : m.nodes) {
      if (n.slot == slot) {
        named = true;
        break;
      }
    }
    if (!named) {
      stale.push_back(slot);
    }
  }
  for (const uint64_t slot : stale) {
    RemoveNode(slot);
  }
  for (const MemberNode& n : m.nodes) {
    if (n.dead()) {
      MarkDead(n.slot);
    } else {
      SetNode(n.slot, n.host, n.port);
    }
  }
  generation_gauge_->Set(static_cast<double>(m.generation));
}

std::optional<uint64_t> UpstreamPool::OwnerOf(std::string_view key) const {
  return ring_.NodeFor(HashString(key));
}

void UpstreamPool::TraceBreaker(uint64_t slot, BreakerState before,
                                BreakerState after) {
  if (tracer_ != nullptr && before != after) {
    tracer_->BreakerTransition(Now(), slot, ToString(before), ToString(after));
  }
}

void UpstreamPool::RecordSuccess(Upstream& up) {
  const SimTime now = Now();
  const BreakerState before = up.breaker->state(now);
  up.breaker->RecordSuccess(now);
  if (!is_backup(up)) {
    TraceBreaker(up.slot, before, up.breaker->state(now));
  }
}

// --- Operations and legs. ---------------------------------------------------

UpstreamPool::OpId UpstreamPool::NewOp(OpKind kind, uint64_t tag) {
  OpId id;
  if (!free_ops_.empty()) {
    id = free_ops_.back();
    free_ops_.pop_back();
  } else {
    id = static_cast<OpId>(ops_.size());
    ops_.emplace_back();
  }
  Op& op = ops_[id];
  op.kind = kind;
  op.tag = tag;
  return id;
}

void UpstreamPool::Release(OpId id) {
  // Cleared in place: the slot keeps its wire, key and value buffers for the
  // next op (SubmitGet resets the fetches it uses).
  Op& op = ops_[id];
  op.with_cas = false;
  op.done = false;
  op.tag = 0;
  op.legs_left = 0;
  op.fallen = 0;
  op.backup_resolved = 0;
  op.wire.clear();
  op.result.key_bytes.clear();
  op.result.key_ends.clear();
  op.result.line = ForwardResult{};
  op.result.acked = 0;
  free_ops_.push_back(id);
}

void UpstreamPool::TakeFinished(std::vector<uint64_t>* out) {
  out->clear();
  out->swap(finished_);
}

void UpstreamPool::ResolveLeg(OpId op) {
  if (--ops_[op].legs_left == 0) {
    FinishOp(op);
  }
}

void UpstreamPool::FinishOp(OpId id) {
  Op& op = ops_[id];
  size_t served = 0;  // keys / writes the backup rung answered
  size_t lost = 0;
  if (op.kind == OpKind::kGet) {
    served = op.backup_resolved;
    lost = op.fallen - op.backup_resolved;
  } else if (op.kind == OpKind::kLine) {
    if (!op.result.line.line.has_value()) {
      lost = 1;
    } else if (op.result.line.rung == ServedRung::kBackup) {
      served = 1;
    }
  }
  // Unresolved keys / writes stay at their zero-initialized state: a miss
  // (or a nullopt line) on the kNone rung — absorbed, never an error.
  backup_served_->Increment(static_cast<int64_t>(served));
  unreachable_->Increment(static_cast<int64_t>(lost));
  if (tracer_ != nullptr && lost > 0) {
    tracer_->Shed(Now(), "proxy_pool", static_cast<double>(lost));
  }
  op.done = true;
  if (op.tag != kWaitTag) {
    finished_.push_back(op.tag);
  }
}

void UpstreamPool::MarkDirty(Upstream& up) {
  if (!up.dirty) {
    up.dirty = true;
    dirty_.push_back(&up);
  }
}

void UpstreamPool::Enqueue(Upstream& up, Leg leg) {
  up.queued.push_back(leg);
  MarkDirty(up);
}

void UpstreamPool::GetToBackup(Leg leg) {
  ++ops_[leg.op].fallen;
  if (backup_ != nullptr && BreakerAllows(*backup_)) {
    Enqueue(*backup_, leg);
  } else {
    ResolveLeg(leg.op);
  }
}

void UpstreamPool::LineToBackup(Leg leg) {
  if (backup_ != nullptr && BreakerAllows(*backup_)) {
    Enqueue(*backup_, leg);
  } else {
    ResolveLeg(leg.op);
  }
}

UpstreamPool::OpId UpstreamPool::SubmitGet(
    std::span<const std::string_view> keys, bool with_cas, uint64_t tag) {
  const OpId id = NewOp(OpKind::kGet, tag);
  Op& op = ops_[id];
  op.with_cas = with_cas;
  OpResult& result = op.result;
  for (const std::string_view key : keys) {
    result.key_bytes.append(key);
    result.key_ends.push_back(static_cast<uint32_t>(result.key_bytes.size()));
  }
  if (result.fetches.size() < keys.size()) {
    result.fetches.resize(keys.size());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ResetFetch(&result.fetches[i]);
  }
  op.legs_left = keys.size();
  if (keys.empty()) {
    FinishOp(id);
    return id;
  }
  // One breaker decision per owning slot (a skip counts once per slot, as
  // one upstream leg of the request); keys of skipped or ownerless slots
  // fall to the backup afterwards, in request-key order.
  route_.clear();
  fallen_.clear();
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto owner = ring_.NodeFor(HashString(keys[i]));
    if (!owner.has_value()) {
      fallen_.push_back(static_cast<uint32_t>(i));
      continue;
    }
    auto decided = std::find_if(route_.begin(), route_.end(),
                                [&](const auto& r) { return r.first == *owner; });
    if (decided == route_.end()) {
      decided = route_.emplace(route_.end(), *owner, Admit(*owner));
    }
    if (decided->second != nullptr) {
      Enqueue(*decided->second, Leg{id, static_cast<uint32_t>(i)});
    } else {
      fallen_.push_back(static_cast<uint32_t>(i));
    }
  }
  for (const uint32_t key : fallen_) {
    GetToBackup(Leg{id, key});
  }
  return id;
}

UpstreamPool::Upstream* UpstreamPool::Admit(uint64_t slot) {
  const auto it = nodes_.find(slot);
  if (it == nodes_.end()) {
    return nullptr;
  }
  Upstream& node = it->second;
  if (!node.dead && BreakerAllows(node)) {
    return &node;
  }
  breaker_skips_->Increment();
  return nullptr;
}

void UpstreamPool::RouteLine(OpId id, std::string_view key) {
  ops_[id].legs_left = 1;
  const auto owner = ring_.NodeFor(HashString(key));
  if (Upstream* node = owner.has_value() ? Admit(*owner) : nullptr) {
    Enqueue(*node, Leg{id, 0});
    return;
  }
  // Degraded leg: land the command on the backup so warm-up (and backup
  // fall-through reads) see fresh data.
  LineToBackup(Leg{id, 0});
}

UpstreamPool::OpId UpstreamPool::SubmitFlush(int64_t delay_s, uint64_t tag) {
  const OpId id = NewOp(OpKind::kFlush, tag);
  Op& op = ops_[id];
  op.wire = "flush_all";
  if (delay_s > 0) {
    op.wire += " " + std::to_string(delay_s);
  }
  op.wire += "\r\n";
  const auto send_to = [&](Upstream& up) {
    if (!up.dead && BreakerAllows(up)) {
      ++op.legs_left;
      Enqueue(up, Leg{id, 0});
    }
  };
  for (auto& [slot, node] : nodes_) {
    send_to(node);
  }
  if (backup_ != nullptr) {
    send_to(*backup_);
  }
  if (op.legs_left == 0) {
    FinishOp(id);
  }
  return id;
}

// --- Upstream connections. --------------------------------------------------

void UpstreamPool::Pump(Upstream& up) {
  if (up.fd < 0) {
    if (!up.queued.empty()) {
      StartConnect(up);  // connects, then comes back here to send
    }
    return;
  }
  if (up.connecting) {
    return;  // the queued legs leave once the connect finishes
  }
  if (!up.queued.empty()) {
    const int64_t deadline =
        WallUs() + static_cast<int64_t>(config_.op_timeout_ms) * 1000;
    for (const Leg leg : up.queued) {
      const Op& op = ops_[leg.op];
      if (op.kind == OpKind::kGet) {
        up.out += op.with_cas ? "gets " : "get ";
        up.out += op.result.key(leg.key);
        up.out += "\r\n";
        up.reader.Push(net::ReplyReader::Expect::kRetrieval);
      } else {
        up.out += op.wire;
        up.reader.Push(net::ReplyReader::Expect::kLine);
      }
      up.inflight.push_back({leg, deadline});
    }
    up.queued.clear();
  }
  FlushOut(up);
}

void UpstreamPool::StartConnect(Upstream& up) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(up.port);
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    Disconnect(up, /*failure=*/true);
    return;
  }
  up.fd = fd;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::inet_pton(AF_INET, up.host.c_str(), &addr.sin_addr) != 1) {
    Disconnect(up, /*failure=*/true);
    return;
  }
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Disconnect(up, /*failure=*/true);  // refused outright
    return;
  }
  up.connecting = rc != 0;
  up.connect_deadline_us =
      WallUs() + static_cast<int64_t>(config_.op_timeout_ms) * 1000;
  epoll_event ev{};
  ev.events = EPOLLIN | (up.connecting ? EPOLLOUT : 0u);
  ev.data.ptr = &up;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    Disconnect(up, /*failure=*/true);
    return;
  }
  up.want_write = up.connecting;
  if (!up.connecting) {
    OnConnected(up);
  }
}

void UpstreamPool::FinishConnect(Upstream& up) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(up.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    Disconnect(up, /*failure=*/true);
    return;
  }
  up.connecting = false;
  OnConnected(up);
}

void UpstreamPool::OnConnected(Upstream& up) {
  if (up.failed_before) {
    reconnects_->Increment();
    up.failed_before = false;
  }
  Pump(up);  // sends the queued legs (and drops EPOLLOUT when all is out)
}

void UpstreamPool::FlushOut(Upstream& up) {
  while (up.out_sent < up.out.size()) {
    const ssize_t n = ::send(up.fd, up.out.data() + up.out_sent,
                             up.out.size() - up.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      up.out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    Disconnect(up, /*failure=*/true);
    return;
  }
  if (up.out_sent == up.out.size()) {
    up.out.clear();
    up.out_sent = 0;
  }
  const bool want_write = !up.out.empty();
  if (want_write != up.want_write) {
    up.want_write = want_write;
    UpdateEpoll(up);
  }
}

void UpstreamPool::UpdateEpoll(Upstream& up) {
  epoll_event ev{};
  ev.events = EPOLLIN | (up.want_write ? EPOLLOUT : 0u);
  ev.data.ptr = &up;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, up.fd, &ev);
}

void UpstreamPool::ReadReady(Upstream& up) {
  reading_ = &up;
  resolved_in_read_ = 0;
  bool failed = false;
  for (;;) {
    const ssize_t n = ::recv(up.fd, rbuf_.get(), kRecvChunk, 0);
    if (n > 0) {
      if (!up.reader.Feed(std::string_view(rbuf_.get(),
                                           static_cast<size_t>(n)),
                          this)) {
        failed = true;  // torn or garbage reply: protocol sync is lost
        break;
      }
      if (static_cast<size_t>(n) < kRecvChunk) {
        break;  // drained the socket
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    failed = true;  // EOF or reset: replies read so far still count
    break;
  }
  reading_ = nullptr;
  if (failed) {
    Disconnect(up, /*failure=*/true);
    return;
  }
  if (resolved_in_read_ > 0) {
    RecordSuccess(up);
  }
}

void UpstreamPool::OnValue(const net::ReplyReader::Value& value) {
  KeyFetch& fetch = reading_->value;
  fetch.found = true;
  fetch.flags = value.flags;
  fetch.cas = value.cas;
  fetch.data.assign(value.data);  // into the retained staging buffer
}

void UpstreamPool::OnReply(net::ReplyReader::Status /*status*/,
                           std::string_view line) {
  Upstream& up = *reading_;
  const Leg leg = up.inflight.front().leg;
  up.inflight.pop_front();
  ++resolved_in_read_;
  Op& op = ops_[leg.op];
  const ServedRung rung =
      is_backup(up) ? ServedRung::kBackup : ServedRung::kPrimary;
  switch (op.kind) {
    case OpKind::kGet:
      // The op takes the staged value; its entry, reset at submission,
      // becomes the upstream's next staging fetch with its buffer.
      up.value.rung = rung;
      std::swap(op.result.fetches[leg.key], up.value);
      if (rung == ServedRung::kBackup) {
        ++op.backup_resolved;
      }
      break;
    case OpKind::kLine:
      op.result.line.line.emplace(line);
      op.result.line.rung = rung;
      break;
    case OpKind::kFlush:
      if (line == "OK") {
        ++op.result.acked;
      }
      break;
  }
  ResolveLeg(leg.op);
}

void UpstreamPool::Disconnect(Upstream& up, bool failure) {
  const bool at_stake = !up.queued.empty() || !up.inflight.empty();
  if (up.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, up.fd, nullptr);
    ::close(up.fd);
    up.fd = -1;
  }
  up.connecting = false;
  up.want_write = false;
  up.out.clear();
  up.out_sent = 0;
  up.reader.Reset();
  ResetFetch(&up.value);
  if (failure && at_stake) {
    const SimTime now = Now();
    const BreakerState before = up.breaker->state(now);
    up.breaker->RecordFailure(now);
    absorbed_failures_->Increment();
    up.failed_before = true;
    TraceBreaker(up.slot, before, up.breaker->state(Now()));
  }
  // Resolved prefix: answered legs already stuck. Everything unresolved —
  // on the wire first, then queued — goes down the ladder in FIFO order.
  std::vector<Leg> legs;
  legs.reserve(up.inflight.size() + up.queued.size());
  for (const InFlight& fl : up.inflight) {
    legs.push_back(fl.leg);
  }
  legs.insert(legs.end(), up.queued.begin(), up.queued.end());
  up.inflight.clear();
  up.queued.clear();
  const bool backup = is_backup(up);
  for (const Leg leg : legs) {
    const OpKind kind = ops_[leg.op].kind;
    if (backup || kind == OpKind::kFlush) {
      ResolveLeg(leg.op);  // the last rung: unreachable / not acked
    } else if (kind == OpKind::kGet) {
      GetToBackup(leg);
    } else {
      LineToBackup(leg);
    }
  }
}

void UpstreamPool::Retire(Upstream& up) {
  Disconnect(up, /*failure=*/false);
  dirty_.erase(std::remove(dirty_.begin(), dirty_.end(), &up), dirty_.end());
  up.dirty = false;
}

// --- The engine loop. -------------------------------------------------------

void UpstreamPool::RunRound(bool probe, int timeout_ms) {
  if (probe) {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    for (int i = 0; i < n; ++i) {
      Upstream& up = *static_cast<Upstream*>(events[i].data.ptr);
      if (up.fd < 0) {
        continue;
      }
      if (up.connecting) {
        FinishConnect(up);
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        ReadReady(up);
        if (up.fd < 0) {
          continue;
        }
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        FlushOut(up);
      }
    }
  }
  ExpireDeadlines();
  PumpDirty();
}

void UpstreamPool::ExpireDeadlines() {
  const int64_t now = WallUs();
  const auto expire = [&](Upstream& up) {
    if ((up.connecting && now >= up.connect_deadline_us) ||
        (!up.inflight.empty() && now >= up.inflight.front().deadline_us)) {
      Disconnect(up, /*failure=*/true);
    }
  };
  for (auto& [slot, node] : nodes_) {
    expire(node);
  }
  if (backup_ != nullptr) {
    expire(*backup_);
  }
}

void UpstreamPool::PumpDirty() {
  // Pump() may re-route legs onto upstreams not yet visited (or already
  // visited): those are appended and pumped in this same pass.
  for (size_t i = 0; i < dirty_.size(); ++i) {
    Upstream& up = *dirty_[i];
    up.dirty = false;
    Pump(up);
  }
  dirty_.clear();
}

void UpstreamPool::Service(bool io_ready) { RunRound(io_ready, 0); }

int64_t UpstreamPool::NextIoDeadlineUs() const {
  if (!dirty_.empty()) {
    return WallUs();
  }
  int64_t next = -1;
  const auto consider = [&next](const Upstream& up) {
    int64_t at = -1;
    if (up.connecting) {
      at = up.connect_deadline_us;
    } else if (!up.inflight.empty()) {
      at = up.inflight.front().deadline_us;
    }
    if (at >= 0 && (next < 0 || at < next)) {
      next = at;
    }
  };
  for (const auto& [slot, node] : nodes_) {
    consider(node);
  }
  if (backup_ != nullptr) {
    consider(*backup_);
  }
  return next;
}

int64_t UpstreamPool::next_deadline_us() const {
  return finished_.empty() ? NextIoDeadlineUs() : WallUs();
}

// --- Synchronous facades. ---------------------------------------------------

void UpstreamPool::Wait(OpId op) {
  while (!ops_[op].done) {
    const int64_t deadline = NextIoDeadlineUs();
    int timeout_ms = 1000;  // nothing outstanding can only mean done; guard
    if (deadline >= 0) {
      timeout_ms = static_cast<int>(
          std::max<int64_t>(0, (deadline - WallUs() + 999) / 1000));
    }
    RunRound(/*probe=*/true, timeout_ms);
  }
}

void UpstreamPool::MultiGet(const std::vector<std::string_view>& keys,
                            bool with_cas, std::vector<KeyFetch>* out) {
  const OpId op = SubmitGet(keys, with_cas, kWaitTag);
  Wait(op);
  // Swapped, not copied: `out`'s old entries become the op's spares.
  out->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    std::swap((*out)[i], ops_[op].result.fetches[i]);
  }
  Release(op);
}

ForwardResult UpstreamPool::ForwardLineCommand(std::string_view key,
                                               const std::string& wire) {
  const OpId op = SubmitLine(
      key, kWaitTag, [&wire](std::string* buf) { buf->append(wire); });
  Wait(op);
  ForwardResult result = std::move(ops_[op].result.line);
  Release(op);
  return result;
}

size_t UpstreamPool::BroadcastFlush(int64_t delay_s) {
  const OpId op = SubmitFlush(delay_s, kWaitTag);
  Wait(op);
  const size_t acked = ops_[op].result.acked;
  Release(op);
  return acked;
}

}  // namespace spotcache::proxy
