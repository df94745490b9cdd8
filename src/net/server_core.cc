#include "src/net/server_core.h"

#include <inttypes.h>

#include "src/util/heap_stats.h"

namespace spotcache::net {

namespace {

TelemetryOp OpFor(Verb verb) {
  switch (verb) {
    case Verb::kGet:
    case Verb::kGets:
      return TelemetryOp::kGet;
    case Verb::kSet:
    case Verb::kAdd:
    case Verb::kReplace:
      return TelemetryOp::kSet;
    case Verb::kDelete:
      return TelemetryOp::kDelete;
    case Verb::kTouch:
      return TelemetryOp::kTouch;
    default:
      return TelemetryOp::kOther;
  }
}

ItemStore::Mode StoreModeOf(Verb verb) {
  return verb == Verb::kAdd       ? ItemStore::Mode::kAdd
         : verb == Verb::kReplace ? ItemStore::Mode::kReplace
                                  : ItemStore::Mode::kSet;
}

}  // namespace

ServerCore::ServerCore(const ServerCoreConfig& config, Obs* obs)
    : config_(config), store_(config.capacity_bytes), obs_(obs) {
  if (obs != nullptr) {
    obs_requests_ = obs->registry.GetCounter("net/requests");
    obs_get_hits_ = obs->registry.GetCounter("net/get_hits");
    obs_get_misses_ = obs->registry.GetCounter("net/get_misses");
    obs_sets_ = obs->registry.GetCounter("net/sets");
    obs_protocol_errors_ = obs->registry.GetCounter("net/protocol_errors");
  }
}

void ServerCore::ConfigureShard(const ShardContext& ctx) {
  shard_ = ctx;
  if (sharded()) {
    store_.set_shared_cas(shard_.exchange->shared_cas());
  }
}

ServerCore::Outcome ServerCore::HandleRetrieve(const TextRequest& req,
                                               int64_t now,
                                               ResponseAssembler* out) {
  const bool with_cas = req.verb == Verb::kGets;
  Outcome result{RequestOutcome::kHit, 0};
  for (size_t ki = 0; ki < req.keys.size(); ++ki) {
    const std::string_view key = req.keys[ki];
    ++cmd_get_;
    const ItemRef* hit = nullptr;
    if (CrossShardOp* rop = RemoteOp(ki); rop != nullptr) {
      // Remote-owned key: the fetch was scattered when the batch was parsed;
      // gather here so VALUE blocks come back in request order.
      AwaitOp(rop);
      hit = rop->found ? &rop->rdata : nullptr;
    } else if (const Item* item = store_.Get(key, now); item != nullptr) {
      // `item` points into the arena, which the next store call may move
      // (even the next key's Get, if it reaps an expired item), so `hit` is
      // used only within this iteration; AppendPinned takes its own ref.
      hit = &item->data;
    }
    if (hit == nullptr) {
      ++get_misses_;
      if (obs_get_misses_ != nullptr) {
        obs_get_misses_->Increment();
      }
      if (result.outcome == RequestOutcome::kHit) {
        result.outcome = RequestOutcome::kMiss;
      }
      continue;
    }
    ++get_hits_;
    if (obs_get_hits_ != nullptr) {
      obs_get_hits_->Increment();
    }
    const ItemBlock& item = **hit;
    result.value_bytes += item.value_len;
    if (with_cas) {
      out->Appendf("VALUE %.*s %u %u %" PRIu64 "\r\n",
                   static_cast<int>(key.size()), key.data(), item.flags,
                   item.value_len, item.cas);
    } else {
      out->Appendf("VALUE %.*s %u %u\r\n", static_cast<int>(key.size()),
                   key.data(), item.flags, item.value_len);
    }
    out->AppendPinned(*hit);
    out->Append("\r\n");
  }
  out->Append("END\r\n");
  return result;
}

ServerCore::Outcome ServerCore::HandleStorage(const TextRequest& req,
                                              int64_t now,
                                              ResponseAssembler* out) {
  ++cmd_set_;
  if (obs_sets_ != nullptr) {
    obs_sets_->Increment();
  }
  const std::string_view key = req.keys[0];
  bool stored = false;
  if (CrossShardOp* rop = RemoteOp(0); rop != nullptr) {
    AwaitOp(rop);
    stored = rop->stored;
  } else {
    stored = store_.Store(StoreModeOf(req.verb), key, req.flags, req.exptime,
                          req.data, now);
  }
  if (!req.noreply) {
    out->Append(stored ? "STORED\r\n" : "NOT_STORED\r\n");
  }
  return Outcome{stored ? RequestOutcome::kStored : RequestOutcome::kNotStored,
                 static_cast<uint32_t>(req.data.size())};
}

void ServerCore::AppendSpotcacheStats(ResponseAssembler* out) {
  out->Appendf("STAT spotcache_version %s\r\n", config_.version.c_str());
  if (sharded()) {
    // Which reactor owns this connection (loadgen uses this to report its
    // per-connection shard distribution), plus the shard fan-out. Telemetry
    // lines below stay per-shard: they describe this reactor's loop.
    out->Appendf("STAT spotcache_shard %u\r\n", shard_.self);
    out->Appendf("STAT spotcache_shard_count %u\r\n", shard_.count);
  }
  if (telemetry_ != nullptr) {
    const RequestTelemetryConfig& tc = telemetry_->config();
    out->Appendf("STAT spotcache_span_sample_every %u\r\n",
                 tc.span_sample_every);
    out->Appendf("STAT spotcache_latency_sample_every %u\r\n",
                 tc.latency_sample_every);
    out->Appendf("STAT spotcache_requests_seen %" PRIu64 "\r\n",
                 telemetry_->requests_seen());
    out->Appendf("STAT spotcache_spans_recorded %" PRIu64 "\r\n",
                 telemetry_->spans_recorded());
    out->Appendf("STAT spotcache_latencies_recorded %" PRIu64 "\r\n",
                 telemetry_->latencies_recorded());
    out->Appendf("STAT spotcache_slow_requests %" PRIu64 "\r\n",
                 telemetry_->slow_requests());
    out->Appendf("STAT spotcache_flight_ring_size %zu\r\n",
                 telemetry_->ring_size());
  }
  // Memory that RSS holds beyond the items' charge: this shard's arena and
  // hash table, then the process-wide heap (read here, never per request).
  const HeapStats heap = ReadHeapStats();
  out->Appendf("STAT spotcache_store_index_bytes %zu\r\n",
               store_.index_bytes());
  out->Appendf("STAT spotcache_heap_in_use_bytes %zu\r\n", heap.in_use);
  out->Appendf("STAT spotcache_heap_free_held_bytes %zu\r\n",
               heap.free_held);
  out->Appendf("STAT spotcache_heap_mmapped_bytes %zu\r\n", heap.mmapped);
  if (obs_ == nullptr) {
    return;
  }
  const MetricsRegistry& reg = obs_->registry;
  out->Appendf("STAT spotcache_loop_iterations %" PRId64 "\r\n",
               reg.CounterValue("net/loop/iterations"));
  out->Appendf("STAT spotcache_loop_stalls %" PRId64 "\r\n",
               reg.CounterValue("net/loop/stalls"));
  out->Appendf("STAT spotcache_pending_out_high_water_bytes %.0f\r\n",
               reg.GaugeValue("net/pending_out_high_water_bytes"));
  out->Appendf("STAT spotcache_conns_high_water %.0f\r\n",
               reg.GaugeValue("net/conns_high_water"));
  // Event-loop and per-(op, outcome) latency quantiles, microseconds. The
  // histogram names are canonical full names, so the (op, outcome) pair is
  // recoverable from the label block: net/request_latency_s{op=x,outcome=y}.
  for (const auto& [full, hist] : reg.histograms()) {
    std::string flat;
    if (full == "net/loop/wait_s") {
      flat = "loop_wait";
    } else if (full == "net/loop/work_s") {
      flat = "loop_work";
    } else if (full.rfind("net/request_latency_s{", 0) == 0) {
      flat = "latency";
      // Label block -> "_<value>" per label, emission order (op, outcome).
      const size_t open = full.find('{');
      size_t pos = open + 1;
      while (pos < full.size() && full[pos] != '}') {
        const size_t eq = full.find('=', pos);
        size_t end = full.find(',', pos);
        if (end == std::string::npos || end > full.find('}', pos)) {
          end = full.find('}', pos);
        }
        if (eq == std::string::npos || eq > end) {
          break;
        }
        flat += '_';
        flat += full.substr(eq + 1, end - eq - 1);
        pos = end + (full[end] == ',' ? 1 : 0);
        if (full[end] == '}') {
          break;
        }
      }
    } else {
      continue;
    }
    const std::vector<double> qs = hist.Quantiles({0.5, 0.99});
    out->Appendf("STAT spotcache_%s_count %" PRIu64 "\r\n", flat.c_str(),
                 hist.count());
    out->Appendf("STAT spotcache_%s_p50_us %.0f\r\n", flat.c_str(),
                 qs[0] * 1e6);
    out->Appendf("STAT spotcache_%s_p99_us %.0f\r\n", flat.c_str(),
                 qs[1] * 1e6);
  }
}

void ServerCore::AppendDefaultStats(int64_t now, ResponseAssembler* out) {
  // Sharded mode aggregates every shard's snapshot (stats is an ordering
  // barrier, so no scattered-ahead op of this batch can race the gather);
  // single-shard mode reads the same fields directly.
  CoreSnapshot t = Snapshot();
  if (sharded()) {
    GatherPeerSnapshots(&t);
  }
  const auto stat_u = [out](const char* name, uint64_t v) {
    out->Appendf("STAT %s %" PRIu64 "\r\n", name, v);
  };
  out->Appendf("STAT version %s\r\n", config_.version.c_str());
  stat_u("uptime",
         t.start_time >= 0 ? static_cast<uint64_t>(now - t.start_time) : 0);
  stat_u("curr_items", t.curr_items);
  stat_u("bytes", t.bytes_used);
  stat_u("limit_maxbytes", t.capacity_bytes);
  stat_u("cmd_get", t.cmd_get);
  stat_u("cmd_set", t.cmd_set);
  stat_u("cmd_touch", t.cmd_touch);
  stat_u("cmd_delete", t.cmd_delete);
  stat_u("cmd_flush", t.cmd_flush);
  stat_u("get_hits", t.get_hits);
  stat_u("get_misses", t.get_misses);
  stat_u("evictions", t.evictions);
  stat_u("expired_unfetched", t.expired_reaped);
  stat_u("protocol_errors", t.protocol_errors);
}

void ServerCore::HandleStats(const TextRequest& req, int64_t now,
                             ResponseAssembler* out) {
  if (req.stats_arg == "spotcache") {
    AppendSpotcacheStats(out);
  } else {
    AppendDefaultStats(now, out);
  }
  out->Append("END\r\n");
}

bool ServerCore::Handle(const TextRequest& req, int64_t now,
                        ResponseAssembler* out) {
  if (start_time_ < 0) {
    start_time_ = now;
  }
  if (obs_requests_ != nullptr) {
    obs_requests_->Increment();
  }
  if (telemetry_ != nullptr) {
    telemetry_->OnParsed(OpFor(req.verb),
                         static_cast<uint32_t>(req.keys.size()));
  }
  Outcome outcome;
  bool keep_open = true;
  switch (req.verb) {
    case Verb::kGet:
    case Verb::kGets:
      outcome = HandleRetrieve(req, now, out);
      break;

    case Verb::kSet:
    case Verb::kAdd:
    case Verb::kReplace:
      outcome = HandleStorage(req, now, out);
      break;

    case Verb::kDelete: {
      ++cmd_delete_;
      bool deleted;
      if (CrossShardOp* rop = RemoteOp(0); rop != nullptr) {
        AwaitOp(rop);
        deleted = rop->found;
      } else {
        deleted = store_.Delete(req.keys[0], now);
      }
      if (!req.noreply) {
        out->Append(deleted ? "DELETED\r\n" : "NOT_FOUND\r\n");
      }
      outcome.outcome =
          deleted ? RequestOutcome::kHit : RequestOutcome::kMiss;
      break;
    }

    case Verb::kTouch: {
      ++cmd_touch_;
      bool touched;
      if (CrossShardOp* rop = RemoteOp(0); rop != nullptr) {
        AwaitOp(rop);
        touched = rop->found;
      } else {
        touched = store_.Touch(req.keys[0], req.exptime, now);
      }
      if (!req.noreply) {
        out->Append(touched ? "TOUCHED\r\n" : "NOT_FOUND\r\n");
      }
      outcome.outcome =
          touched ? RequestOutcome::kHit : RequestOutcome::kMiss;
      break;
    }

    case Verb::kStats:
      HandleStats(req, now, out);
      break;

    case Verb::kVersion:
      out->Appendf("VERSION %s\r\n", config_.version.c_str());
      break;

    case Verb::kFlushAll:
      ++cmd_flush_;
      store_.FlushAll(now, req.delay_s);
      if (sharded()) {
        // Ordering barrier: every scattered op before this point has been
        // awaited (scatter windows stop at flush_all), and nothing after it
        // is scattered until the broadcast round-trips, so "stores before
        // the flush die, stores after survive" holds across shards.
        BroadcastFlush(now, req.delay_s);
      }
      if (!req.noreply) {
        out->Append("OK\r\n");
      }
      break;

    case Verb::kQuit:
      keep_open = false;
      break;
  }
  if (telemetry_ != nullptr) {
    telemetry_->OnExecuted(outcome.outcome, outcome.value_bytes);
  }
  return keep_open;
}

void ServerCore::HandleParseError(ParseErrorKind kind, ResponseAssembler* out) {
  ++protocol_errors_;
  if (obs_protocol_errors_ != nullptr) {
    obs_protocol_errors_->Increment();
  }
  out->Append(ErrorReply(kind));
}

// --- Sharded-batch execution. ---------------------------------------------

CoreSnapshot ServerCore::Snapshot() const {
  CoreSnapshot s;
  s.curr_items = store_.item_count();
  s.bytes_used = store_.bytes_used();
  s.capacity_bytes = store_.capacity_bytes();
  s.evictions = store_.evictions();
  s.expired_reaped = store_.expired_reaped();
  s.cmd_get = cmd_get_;
  s.cmd_set = cmd_set_;
  s.cmd_touch = cmd_touch_;
  s.cmd_delete = cmd_delete_;
  s.cmd_flush = cmd_flush_;
  s.get_hits = get_hits_;
  s.get_misses = get_misses_;
  s.protocol_errors = protocol_errors_;
  s.start_time = start_time_;
  return s;
}

void ServerCore::ExecuteCrossOp(CrossShardOp* op) {
  using Kind = CrossShardOp::Kind;
  switch (op->kind) {
    case Kind::kGet: {
      // Copy the ref out at once: `item` points into the arena.
      const Item* item = store_.Get(op->key, op->now);
      op->found = item != nullptr;
      op->rdata = op->found ? item->data : nullptr;
      break;
    }
    case Kind::kStore:
      op->stored = store_.Store(op->mode, op->key, op->flags, op->exptime,
                                op->data, op->now);
      break;
    case Kind::kDelete:
      op->found = store_.Delete(op->key, op->now);
      break;
    case Kind::kTouch:
      op->found = store_.Touch(op->key, op->exptime, op->now);
      break;
    case Kind::kFlushAll:
      store_.FlushAll(op->now, op->delay_s);
      break;
    case Kind::kSnapshot:
      op->snapshot = Snapshot();
      break;
    case Kind::kAdoptConn:
      break;  // connection handoff is the server's job, not the core's
  }
  op->done.store(true, std::memory_order_release);
}

void ServerCore::ServiceInbox() {
  if (sharded()) {
    shard_.exchange->ServiceInbox(shard_.self);
  }
}

void ServerCore::ScatterEvent(const PendingEvent& ev, size_t index,
                              uint64_t* wake_mask) {
  std::vector<CrossShardOp*>& ops = event_ops_[index];
  // Every op is fully populated BEFORE Submit: the ring's release/acquire
  // on the tail index is what publishes the fields to the owner thread.
  const auto make_op = [this](CrossShardOp::Kind kind,
                              const std::string& key) -> CrossShardOp* {
    CrossShardOp& op = batch_ops_.emplace_back();
    op.kind = kind;
    op.key = key;
    op.now = batch_now_;
    return &op;
  };
  const auto submit = [this, wake_mask](CrossShardOp* op, uint32_t owner) {
    shard_.exchange->Submit(shard_.self, owner, op);
    *wake_mask |= uint64_t{1} << owner;
  };
  switch (ev.verb) {
    case Verb::kGet:
    case Verb::kGets:
      ops.assign(ev.keys.size(), nullptr);
      for (size_t ki = 0; ki < ev.keys.size(); ++ki) {
        const uint32_t owner = ShardOfKey(ev.keys[ki], shard_.count);
        if (owner != shard_.self) {
          CrossShardOp* op = make_op(CrossShardOp::Kind::kGet, ev.keys[ki]);
          ops[ki] = op;
          submit(op, owner);
        }
      }
      break;
    case Verb::kSet:
    case Verb::kAdd:
    case Verb::kReplace: {
      ops.assign(1, nullptr);
      const uint32_t owner = ShardOfKey(ev.keys[0], shard_.count);
      if (owner != shard_.self) {
        CrossShardOp* op = make_op(CrossShardOp::Kind::kStore, ev.keys[0]);
        op->mode = StoreModeOf(ev.verb);
        op->flags = ev.flags;
        op->exptime = ev.exptime;
        op->data = ev.data;
        ops[0] = op;
        submit(op, owner);
      }
      break;
    }
    case Verb::kDelete:
    case Verb::kTouch: {
      ops.assign(1, nullptr);
      const uint32_t owner = ShardOfKey(ev.keys[0], shard_.count);
      if (owner != shard_.self) {
        CrossShardOp* op =
            make_op(ev.verb == Verb::kDelete ? CrossShardOp::Kind::kDelete
                                             : CrossShardOp::Kind::kTouch,
                    ev.keys[0]);
        op->exptime = ev.exptime;
        ops[0] = op;
        submit(op, owner);
      }
      break;
    }
    default:
      ops.clear();
      break;
  }
}

size_t ServerCore::ScatterWindow(const std::vector<PendingEvent>& events,
                                 size_t from) {
  const auto is_barrier = [](const PendingEvent& ev) {
    return !ev.is_error &&
           (ev.verb == Verb::kStats || ev.verb == Verb::kFlushAll ||
            ev.verb == Verb::kQuit);
  };
  if (from < events.size() && is_barrier(events[from])) {
    // A barrier at the window start executes before anything past it may
    // scatter: resume scatter at the next event.
    return from + 1;
  }
  uint64_t wake_mask = 0;
  size_t i = from;
  for (; i < events.size() && !is_barrier(events[i]); ++i) {
    ScatterEvent(events[i], i, &wake_mask);
  }
  // One wake per touched shard per window, after all pushes (no lost
  // wakeups: the op is visible in the ring before the eventfd write).
  for (uint32_t s = 0; wake_mask != 0 && s < shard_.count; ++s) {
    if ((wake_mask >> s) & 1) {
      shard_.exchange->Wake(s);
    }
  }
  return i;
}

bool ServerCore::ExecuteBatch(const std::vector<PendingEvent>& events,
                              int64_t now, ResponseAssembler* out) {
  batch_now_ = now;
  event_ops_.resize(events.size());
  for (auto& ops : event_ops_) {
    ops.clear();
  }
  bool keep_open = true;
  size_t scatter_from = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i >= scatter_from) {
      scatter_from = ScatterWindow(events, i);
    }
    if ((i & 63) == 0) {
      ServiceInbox();  // bound cross-shard latency inside big batches
    }
    const PendingEvent& ev = events[i];
    if (telemetry_ != nullptr) {
      telemetry_->BeginRequest();
    }
    if (ev.is_error) {
      if (telemetry_ != nullptr) {
        telemetry_->OnParsed(TelemetryOp::kOther, 0);
      }
      HandleParseError(ev.error, out);
      if (telemetry_ != nullptr) {
        telemetry_->OnExecuted(RequestOutcome::kError, 0);
      }
      continue;
    }
    key_views_.assign(ev.keys.begin(), ev.keys.end());
    TextRequest req;
    req.verb = ev.verb;
    req.keys = std::span<const std::string_view>(key_views_);
    req.flags = ev.flags;
    req.exptime = ev.exptime;
    req.delay_s = ev.delay_s;
    req.stats_arg = ev.stats_arg;
    req.data = ev.data;
    req.noreply = ev.noreply;
    current_event_ops_ = &event_ops_[i];
    keep_open = Handle(req, now, out);
    current_event_ops_ = nullptr;
    if (!keep_open) {
      break;
    }
  }
  // Await every scattered op before reusing the deque: ops past a `quit`
  // (or simply unconsumed) must not dangle into the next batch.
  for (CrossShardOp& op : batch_ops_) {
    AwaitOp(&op);
  }
  batch_ops_.clear();
  event_ops_.clear();
  return keep_open;
}

void ServerCore::GatherPeerSnapshots(CoreSnapshot* total) {
  std::deque<CrossShardOp> ops;
  for (uint32_t s = 0; s < shard_.count; ++s) {
    if (s == shard_.self) {
      continue;
    }
    CrossShardOp& op = ops.emplace_back();
    op.kind = CrossShardOp::Kind::kSnapshot;
    op.now = batch_now_;
    shard_.exchange->Submit(shard_.self, s, &op);
    shard_.exchange->Wake(s);
  }
  for (CrossShardOp& op : ops) {
    AwaitOp(&op);
    const CoreSnapshot& s = op.snapshot;
    total->curr_items += s.curr_items;
    total->bytes_used += s.bytes_used;
    total->capacity_bytes += s.capacity_bytes;
    total->evictions += s.evictions;
    total->expired_reaped += s.expired_reaped;
    total->cmd_get += s.cmd_get;
    total->cmd_set += s.cmd_set;
    total->cmd_touch += s.cmd_touch;
    total->cmd_delete += s.cmd_delete;
    total->cmd_flush += s.cmd_flush;
    total->get_hits += s.get_hits;
    total->get_misses += s.get_misses;
    total->protocol_errors += s.protocol_errors;
    if (s.start_time >= 0 &&
        (total->start_time < 0 || s.start_time < total->start_time)) {
      total->start_time = s.start_time;
    }
  }
}

void ServerCore::BroadcastFlush(int64_t now, int64_t delay_s) {
  std::deque<CrossShardOp> ops;
  for (uint32_t s = 0; s < shard_.count; ++s) {
    if (s == shard_.self) {
      continue;
    }
    CrossShardOp& op = ops.emplace_back();
    op.kind = CrossShardOp::Kind::kFlushAll;
    op.now = now;
    op.delay_s = delay_s;
    shard_.exchange->Submit(shard_.self, s, &op);
    shard_.exchange->Wake(s);
  }
  for (CrossShardOp& op : ops) {
    AwaitOp(&op);
  }
}


}  // namespace spotcache::net
