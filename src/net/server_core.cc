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
    : config_(config),
      own_store_(config.capacity_bytes, 1),
      obs_(obs),
      registry_(obs != nullptr ? &obs->registry : &own_registry_),
      requests_(registry_->GetCounter("net/requests")),
      get_hits_(registry_->GetCounter("net/get_hits")),
      get_misses_(registry_->GetCounter("net/get_misses")),
      sets_(registry_->GetCounter("net/sets")),
      touches_(registry_->GetCounter("net/touches")),
      deletes_(registry_->GetCounter("net/deletes")),
      flushes_(registry_->GetCounter("net/flushes")),
      protocol_errors_(registry_->GetCounter("net/protocol_errors")) {}

void ServerCore::ConfigureShard(const ShardContext& ctx) {
  shard_ = ctx;
  if (ctx.store != nullptr) {
    store_ = ctx.store;
  }
}

ServerCore::Outcome ServerCore::HandleRetrieve(const TextRequest& req,
                                               int64_t now,
                                               ResponseAssembler* out) {
  const bool with_cas = req.verb == Verb::kGets;
  Outcome result{RequestOutcome::kHit, 0};
  for (size_t ki = 0; ki < req.keys.size(); ++ki) {
    const std::string_view key = req.keys[ki];
    ItemRef hit = store_->Get(key, now);
    if (!hit) {
      get_misses_->Increment();
      if (result.outcome == RequestOutcome::kHit) {
        result.outcome = RequestOutcome::kMiss;
      }
      continue;
    }
    get_hits_->Increment();
    const ItemBlock& item = *hit;
    result.value_bytes += item.value_len();
    if (with_cas) {
      out->Appendf("VALUE %.*s %u %u %" PRIu64 "\r\n",
                   static_cast<int>(key.size()), key.data(), item.flags,
                   item.value_len(), item.cas);
    } else {
      out->Appendf("VALUE %.*s %u %u\r\n", static_cast<int>(key.size()),
                   key.data(), item.flags, item.value_len());
    }
    out->AppendPinned(std::move(hit));
    out->Append("\r\n");
  }
  out->Append("END\r\n");
  return result;
}

ServerCore::Outcome ServerCore::HandleStorage(const TextRequest& req,
                                              int64_t now,
                                              ResponseAssembler* out) {
  sets_->Increment();
  const bool stored = store_->Store(StoreModeOf(req.verb), req.keys[0],
                                    req.flags, req.exptime, req.data, now);
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
    // per-connection shard distribution), plus the reactor count. Telemetry
    // lines below stay per reactor: they describe this reactor's loop.
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
  // Memory that RSS holds beyond the items' charge: the store's arenas and
  // hash tables, every reactor's connection buffers, then the process-wide
  // heap (read here, never per request).
  const HeapStats heap = ReadHeapStats();
  out->Appendf("STAT spotcache_store_index_bytes %zu\r\n",
               store_->index_bytes());
  double conn_buffer_bytes = 0;
  ForEachCore([&conn_buffer_bytes](const ServerCore& core) {
    conn_buffer_bytes += core.registry_->GaugeValue("net/conn_buffer_bytes");
  });
  out->Appendf("STAT spotcache_conn_buffer_bytes %.0f\r\n",
               conn_buffer_bytes);
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
      // {op=x,outcome=y} -> latency_x_y
      flat = "latency";
      for (size_t eq = full.find('='); eq != std::string::npos;) {
        const size_t end = full.find_first_of(",}", eq);
        flat += '_';
        flat += full.substr(eq + 1, end - eq - 1);
        eq = full.find('=', end);
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
  const CoreSnapshot t = Snapshot();
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
  if (start_time_.load(std::memory_order_relaxed) < 0) {
    start_time_.store(now, std::memory_order_relaxed);
  }
  requests_->Increment();
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
      deletes_->Increment();
      const bool deleted = store_->Delete(req.keys[0], now);
      if (!req.noreply) {
        out->Append(deleted ? "DELETED\r\n" : "NOT_FOUND\r\n");
      }
      outcome.outcome =
          deleted ? RequestOutcome::kHit : RequestOutcome::kMiss;
      break;
    }

    case Verb::kTouch: {
      touches_->Increment();
      const bool touched = store_->Touch(req.keys[0], req.exptime, now);
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
      flushes_->Increment();
      store_->FlushAll(now, req.delay_s);
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
  protocol_errors_->Increment();
  out->Append(ErrorReply(kind));
}

void ServerCore::PublishGauges() {
  const StripedStore::Totals store = store_->totals();
  registry_->GetGauge("net/store_index_bytes")->Set(
      static_cast<double>(store.index_bytes));
  registry_->GetGauge("net/store_items")->Set(static_cast<double>(store.items));
  registry_->GetGauge("net/store_bytes")->Set(
      static_cast<double>(store.bytes_used));
}

CoreSnapshot ServerCore::Snapshot() const {
  const StripedStore::Totals store = store_->totals();
  CoreSnapshot s;
  s.curr_items = store.items;
  s.bytes_used = store.bytes_used;
  s.capacity_bytes = store.capacity_bytes;
  s.evictions = store.evictions;
  s.expired_reaped = store.expired_reaped;
  const auto add = [&s](const ServerCore& core) {
    const auto get = [](const Counter* c) {
      return static_cast<uint64_t>(c->value());
    };
    s.get_hits += get(core.get_hits_);
    s.get_misses += get(core.get_misses_);
    s.cmd_set += get(core.sets_);
    s.cmd_touch += get(core.touches_);
    s.cmd_delete += get(core.deletes_);
    s.cmd_flush += get(core.flushes_);
    s.protocol_errors += get(core.protocol_errors_);
    const int64_t start = core.start_time_.load(std::memory_order_relaxed);
    if (start >= 0 && (s.start_time < 0 || start < s.start_time)) {
      s.start_time = start;
    }
  };
  ForEachCore(add);
  s.cmd_get = s.get_hits + s.get_misses;
  return s;
}

}  // namespace spotcache::net
