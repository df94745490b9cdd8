#include "src/proxy/proxy_core.h"

#include <inttypes.h>

#include <charconv>

namespace spotcache::proxy {

namespace {

TelemetryOp OpFor(net::Verb verb) {
  switch (verb) {
    case net::Verb::kGet:
    case net::Verb::kGets:
      return TelemetryOp::kGet;
    case net::Verb::kSet:
    case net::Verb::kAdd:
    case net::Verb::kReplace:
      return TelemetryOp::kSet;
    case net::Verb::kDelete:
      return TelemetryOp::kDelete;
    case net::Verb::kTouch:
      return TelemetryOp::kTouch;
    default:
      return TelemetryOp::kOther;
  }
}

/// Appends ' ' and the decimal form of `value` (no temporary string).
template <typename Int>
void AppendArg(std::string* out, Int value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->push_back(' ');
  out->append(buf, end);
}

/// Worst-first merge for multi-key retrievals, matching the server's
/// convention (error > shed > backup > miss > hit).
RequestOutcome Worse(RequestOutcome a, RequestOutcome b) {
  const auto rank = [](RequestOutcome o) {
    switch (o) {
      case RequestOutcome::kError:
        return 4;
      case RequestOutcome::kShed:
        return 3;
      case RequestOutcome::kBackup:
        return 2;
      case RequestOutcome::kMiss:
        return 1;
      default:
        return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

}  // namespace

ProxyCore::Counters::Counters(MetricsRegistry& registry)
    : requests(registry.GetCounter("proxy/requests")),
      gets(registry.GetCounter("proxy/gets")),
      get_keys(registry.GetCounter("proxy/get_keys")),
      get_hits(registry.GetCounter("proxy/get_hits")),
      backup_hits(registry.GetCounter("proxy/backup_hits")),
      get_misses(registry.GetCounter("proxy/get_misses")),
      sheds(registry.GetCounter("proxy/sheds")),
      sets(registry.GetCounter("proxy/sets")),
      set_primary(registry.GetCounter("proxy/set_primary")),
      set_backup(registry.GetCounter("proxy/set_backup")),
      set_failures(registry.GetCounter("proxy/set_failures")),
      deletes(registry.GetCounter("proxy/deletes")),
      touches(registry.GetCounter("proxy/touches")),
      flushes(registry.GetCounter("proxy/flushes")),
      reloads(registry.GetCounter("proxy/reloads")),
      reload_failures(registry.GetCounter("proxy/reload_failures")),
      protocol_errors(registry.GetCounter("proxy/protocol_errors")) {}

ProxyCore::ProxyCore(const ProxyCoreConfig& config, Obs* obs,
                     EventTracer* tracer)
    : config_(config),
      registry_(obs != nullptr ? &obs->registry : &own_registry_),
      counters_(*registry_),
      pool_(config.upstreams, tracer, registry_) {}

ProxyStats ProxyCore::stats() const {
  const auto v = [](const Counter* c) {
    return static_cast<uint64_t>(c->value());
  };
  const Counters& c = counters_;
  return ProxyStats{
      .requests = v(c.requests),
      .gets = v(c.gets),
      .get_keys = v(c.get_keys),
      .get_hits = v(c.get_hits),
      .backup_hits = v(c.backup_hits),
      .misses = v(c.get_misses),
      .sheds = v(c.sheds),
      .sets = v(c.sets),
      .set_primary = v(c.set_primary),
      .set_backup = v(c.set_backup),
      .set_failures = v(c.set_failures),
      .deletes = v(c.deletes),
      .touches = v(c.touches),
      .flushes = v(c.flushes),
      .reloads = v(c.reloads),
      .reload_failures = v(c.reload_failures),
      .protocol_errors = v(c.protocol_errors),
  };
}

bool ProxyCore::ReloadMembership(const std::string& path) {
  std::string error;
  const auto m = LoadMembership(path, &error);
  if (!m.has_value()) {
    counters_.reload_failures->Increment();
    return false;
  }
  pool_.ApplyMembership(*m);
  counters_.reloads->Increment();
  return true;
}

void ProxyCore::RenderRetrieve(const Request& r, net::ResponseAssembler* out,
                               RequestOutcome* outcome,
                               uint32_t* value_bytes) {
  const OpResult& result = pool_.result(r.op);
  counters_.gets->Increment();
  counters_.get_keys->Increment(static_cast<int64_t>(result.key_count()));
  const bool with_cas = r.verb == net::Verb::kGets;

  *outcome = RequestOutcome::kHit;
  for (size_t i = 0; i < result.key_count(); ++i) {
    const KeyFetch& fetch = result.fetches[i];
    if (fetch.found) {
      // Byte-identical to ServerCore's VALUE block formatting.
      const std::string_view key = result.key(i);
      if (with_cas) {
        out->Appendf("VALUE %.*s %u %zu %" PRIu64 "\r\n",
                     static_cast<int>(key.size()), key.data(), fetch.flags,
                     fetch.data.size(), fetch.cas);
      } else {
        out->Appendf("VALUE %.*s %u %zu\r\n", static_cast<int>(key.size()),
                     key.data(), fetch.flags, fetch.data.size());
      }
      out->Append(fetch.data);
      out->Append("\r\n");
      *value_bytes += static_cast<uint32_t>(fetch.data.size());
      if (fetch.rung == ServedRung::kBackup) {
        counters_.backup_hits->Increment();
        *outcome = Worse(*outcome, RequestOutcome::kBackup);
      } else {
        counters_.get_hits->Increment();
      }
    } else if (fetch.rung == ServedRung::kNone) {
      // Nothing reachable: absorbed as a shed, reported as a plain miss.
      counters_.sheds->Increment();
      *outcome = Worse(*outcome, RequestOutcome::kShed);
    } else {
      counters_.get_misses->Increment();
      *outcome = Worse(*outcome, RequestOutcome::kMiss);
    }
  }
  out->Append("END\r\n");
}

void ProxyCore::RebuildWire(const net::TextRequest& req, std::string* wire) {
  switch (req.verb) {
    case net::Verb::kSet:
    case net::Verb::kAdd:
    case net::Verb::kReplace:
      wire->append(ToString(req.verb));
      wire->push_back(' ');
      wire->append(req.keys[0]);
      AppendArg(wire, req.flags);
      AppendArg(wire, req.exptime);
      AppendArg(wire, req.data.size());
      wire->append("\r\n");
      wire->append(req.data);
      wire->append("\r\n");
      break;
    case net::Verb::kDelete:
      wire->append("delete ");
      wire->append(req.keys[0]);
      wire->append("\r\n");
      break;
    case net::Verb::kTouch:
      wire->append("touch ");
      wire->append(req.keys[0]);
      AppendArg(wire, req.exptime);
      wire->append("\r\n");
      break;
    default:
      break;
  }
}

void ProxyCore::RenderForwarded(const Request& r,
                                net::ResponseAssembler* out,
                                RequestOutcome* outcome) {
  const bool storage = r.verb == net::Verb::kSet ||
                       r.verb == net::Verb::kAdd ||
                       r.verb == net::Verb::kReplace;
  if (storage) {
    counters_.sets->Increment();
  } else if (r.verb == net::Verb::kDelete) {
    counters_.deletes->Increment();
  } else {
    counters_.touches->Increment();
  }

  // The command went upstream WITHOUT noreply and its status line was
  // awaited even when the client asked for silence: the upstream round trip
  // keeps cas numbering and command ordering in lockstep with direct
  // serving.
  const ForwardResult& result = pool_.result(r.op).line;
  if (result.line.has_value()) {
    if (storage) {
      if (result.rung == ServedRung::kBackup) {
        counters_.set_backup->Increment();
      } else {
        counters_.set_primary->Increment();
      }
      *outcome = *result.line == "STORED" ? RequestOutcome::kStored
                                          : RequestOutcome::kNotStored;
      if (result.rung == ServedRung::kBackup) {
        *outcome = RequestOutcome::kBackup;
      }
    } else {
      *outcome = (*result.line == "DELETED" || *result.line == "TOUCHED")
                     ? RequestOutcome::kHit
                     : RequestOutcome::kMiss;
    }
    if (!r.noreply) {
      out->Append(*result.line);
      out->Append("\r\n");
    }
    return;
  }

  // No rung reachable. Never lie about a write landing: surface a
  // SERVER_ERROR (suppressed under noreply, like every status reply). The
  // pool counts the lost command as unreachable.
  if (storage) {
    counters_.set_failures->Increment();
  }
  *outcome = RequestOutcome::kShed;
  if (!r.noreply) {
    out->Append("SERVER_ERROR proxy upstream unavailable\r\n");
  }
}

void ProxyCore::AppendStats(net::ResponseAssembler* out) {
  // The proxy's own deterministic stats block: pure functions of the
  // request history (no clocks, no uptime), so chunking-invariance holds
  // through the fuzz harness.
  const ProxyStats s = stats();
  const UpstreamPoolStats ps = pool_.stats();
  out->Appendf("STAT version %s\r\n", config_.version.c_str());
  out->Appendf("STAT proxy_requests %" PRIu64 "\r\n", s.requests);
  out->Appendf("STAT proxy_gets %" PRIu64 "\r\n", s.gets);
  out->Appendf("STAT proxy_get_keys %" PRIu64 "\r\n", s.get_keys);
  out->Appendf("STAT proxy_get_hits %" PRIu64 "\r\n", s.get_hits);
  out->Appendf("STAT proxy_backup_hits %" PRIu64 "\r\n", s.backup_hits);
  out->Appendf("STAT proxy_get_misses %" PRIu64 "\r\n", s.misses);
  out->Appendf("STAT proxy_sheds %" PRIu64 "\r\n", s.sheds);
  out->Appendf("STAT proxy_sets %" PRIu64 "\r\n", s.sets);
  out->Appendf("STAT proxy_set_primary %" PRIu64 "\r\n", s.set_primary);
  out->Appendf("STAT proxy_set_backup %" PRIu64 "\r\n", s.set_backup);
  out->Appendf("STAT proxy_set_failures %" PRIu64 "\r\n",
               s.set_failures);
  out->Appendf("STAT proxy_deletes %" PRIu64 "\r\n", s.deletes);
  out->Appendf("STAT proxy_touches %" PRIu64 "\r\n", s.touches);
  out->Appendf("STAT proxy_flushes %" PRIu64 "\r\n", s.flushes);
  out->Appendf("STAT proxy_absorbed_failures %" PRIu64 "\r\n",
               ps.absorbed_failures);
  out->Appendf("STAT proxy_reconnects %" PRIu64 "\r\n", ps.reconnects);
  out->Appendf("STAT proxy_breaker_skips %" PRIu64 "\r\n", ps.breaker_skips);
  out->Appendf("STAT proxy_backup_served %" PRIu64 "\r\n", ps.backup_served);
  out->Appendf("STAT proxy_unreachable %" PRIu64 "\r\n", ps.unreachable);
  // The fleet view: the pool's proxy/nodes and proxy/generation gauges.
  out->Appendf("STAT proxy_nodes %zu\r\n", pool_.node_count());
  out->Appendf("STAT proxy_generation %" PRIu64 "\r\n", pool_.generation());
  out->Appendf("STAT proxy_reloads %" PRIu64 "\r\n", s.reloads);
  out->Appendf("STAT proxy_protocol_errors %" PRIu64 "\r\n",
               s.protocol_errors);
  out->Append("END\r\n");
}

uint64_t ProxyCore::Begin(const net::TextRequest& req, bool deferred) {
  // `req` views the server's receive buffer, which the next read reuses:
  // everything an op needs later (keys, the rebuilt wire with the payload)
  // is copied into the pool before this returns.
  if (telemetry_ != nullptr) {
    telemetry_->OnParsed(OpFor(req.verb),
                         static_cast<uint32_t>(req.keys.size()));
  }
  uint64_t handle;
  if (!free_requests_.empty()) {
    handle = free_requests_.back();
    free_requests_.pop_back();
  } else {
    handle = requests_.size();
    requests_.emplace_back();
  }
  Request& r = requests_[handle];
  r.verb = req.verb;
  r.noreply = req.noreply;
  const uint64_t tag = deferred ? handle : UpstreamPool::kWaitTag;
  switch (req.verb) {
    case net::Verb::kGet:
    case net::Verb::kGets:
      r.op = pool_.SubmitGet(req.keys, req.verb == net::Verb::kGets, tag);
      r.has_op = true;
      break;
    case net::Verb::kSet:
    case net::Verb::kAdd:
    case net::Verb::kReplace:
    case net::Verb::kDelete:
    case net::Verb::kTouch:
      r.op = pool_.SubmitLine(req.keys[0], tag, [&req](std::string* wire) {
        RebuildWire(req, wire);
      });
      r.has_op = true;
      break;
    case net::Verb::kFlushAll:
      r.op = pool_.SubmitFlush(req.delay_s, tag);
      r.has_op = true;
      break;
    case net::Verb::kStats:
    case net::Verb::kVersion:
    case net::Verb::kQuit:
      break;  // answered locally
  }
  r.done = !r.has_op;
  return handle;
}

void ProxyCore::FreeRequest(uint64_t handle) {
  Request& r = requests_[handle];
  if (r.has_op) {
    pool_.Release(r.op);
  }
  r = Request{};
  free_requests_.push_back(handle);
}

bool ProxyCore::Start(const net::TextRequest& req, int64_t now,
                      net::ReplySlot slot, uint64_t* handle) {
  (void)now;  // expiry is the upstreams' business; the proxy holds no items
  *handle = Begin(req, /*deferred=*/true);
  requests_[*handle].slot = slot;
  return requests_[*handle].done;
}

void ProxyCore::Service(bool io_ready, std::vector<net::ReplySlot>* ready) {
  pool_.Service(io_ready);
  pool_.TakeFinished(&finished_);
  for (const uint64_t handle : finished_) {
    Request& r = requests_[handle];
    if (r.dropped) {
      FreeRequest(handle);
      continue;
    }
    r.done = true;
    ready->push_back(r.slot);
  }
}

void ProxyCore::Drop(uint64_t handle) {
  Request& r = requests_[handle];
  if (r.done) {
    FreeRequest(handle);
  } else {
    r.dropped = true;  // freed when its op finishes
  }
}

bool ProxyCore::Handle(const net::TextRequest& req, int64_t now,
                       net::ResponseAssembler* out) {
  (void)now;
  const uint64_t handle = Begin(req, /*deferred=*/false);
  if (!requests_[handle].done) {
    pool_.Wait(requests_[handle].op);
  }
  return Finish(handle, out);
}

bool ProxyCore::Finish(uint64_t handle, net::ResponseAssembler* out) {
  const Request& r = requests_[handle];
  counters_.requests->Increment();
  RequestOutcome outcome = RequestOutcome::kOther;
  uint32_t value_bytes = 0;
  bool keep_open = true;
  switch (r.verb) {
    case net::Verb::kGet:
    case net::Verb::kGets:
      RenderRetrieve(r, out, &outcome, &value_bytes);
      break;

    case net::Verb::kSet:
    case net::Verb::kAdd:
    case net::Verb::kReplace:
    case net::Verb::kDelete:
    case net::Verb::kTouch:
      RenderForwarded(r, out, &outcome);
      break;

    case net::Verb::kStats:
      AppendStats(out);
      break;

    case net::Verb::kVersion:
      out->Appendf("VERSION %s\r\n", config_.version.c_str());
      break;

    case net::Verb::kFlushAll:
      counters_.flushes->Increment();
      if (!r.noreply) {
        out->Append("OK\r\n");
      }
      break;

    case net::Verb::kQuit:
      keep_open = false;
      break;
  }
  FreeRequest(handle);
  if (telemetry_ != nullptr) {
    telemetry_->OnExecuted(outcome, value_bytes);
  }
  return keep_open;
}

void ProxyCore::HandleParseError(net::ParseErrorKind kind,
                                 net::ResponseAssembler* out) {
  counters_.protocol_errors->Increment();
  out->Append(net::ErrorReply(kind));
}

}  // namespace spotcache::proxy
