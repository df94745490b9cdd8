#include "src/obs/request_telemetry.h"

#include <chrono>

namespace spotcache {

namespace {

/// Rounds up to a power of two (0 stays 0, for "disabled").
uint32_t PowerOfTwoCeil(uint32_t v) {
  if (v <= 1) {
    return v;
  }
  uint32_t p = 1;
  while (p < v && p < (1u << 30)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

std::string_view ToString(TelemetryOp op) {
  switch (op) {
    case TelemetryOp::kGet: return "get";
    case TelemetryOp::kSet: return "set";
    case TelemetryOp::kDelete: return "delete";
    case TelemetryOp::kTouch: return "touch";
    case TelemetryOp::kOther: return "other";
  }
  return "other";
}

std::string_view ToString(RequestOutcome o) {
  switch (o) {
    case RequestOutcome::kHit: return "hit";
    case RequestOutcome::kMiss: return "miss";
    case RequestOutcome::kShed: return "shed";
    case RequestOutcome::kBackup: return "backup";
    case RequestOutcome::kError: return "error";
    case RequestOutcome::kStored: return "stored";
    case RequestOutcome::kNotStored: return "not_stored";
    case RequestOutcome::kOther: return "other";
  }
  return "other";
}

int64_t RequestTelemetry::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RequestTelemetry::RequestTelemetry(const RequestTelemetryConfig& config,
                                   Obs* obs)
    : config_(config), obs_(obs), sample_state_(config.seed) {
  config_.span_sample_every = PowerOfTwoCeil(config.span_sample_every);
  config_.latency_sample_every = PowerOfTwoCeil(config.latency_sample_every);
  span_mask_ =
      config_.span_sample_every == 0 ? 0 : config_.span_sample_every - 1;
  latency_mask_ = config_.latency_sample_every == 0
                      ? 0
                      : config_.latency_sample_every - 1;
  if (config_.flight_ring_capacity == 0) {
    config_.flight_ring_capacity = 1;
  }
  // Storage only: a record's page is touched when the record is written.
  ring_.reserve(config_.flight_ring_capacity);
  if (obs_ != nullptr) {
    spans_counter_ = obs_->registry.GetCounter("net/telemetry/spans");
    slow_counter_ = obs_->registry.GetCounter("net/telemetry/slow_requests");
  }
}

Histogram* RequestTelemetry::HistogramFor(TelemetryOp op,
                                          RequestOutcome outcome) {
  if (obs_ == nullptr) {
    return nullptr;
  }
  const auto o = static_cast<size_t>(op);
  const auto c = static_cast<size_t>(outcome);
  Histogram*& slot = hists_[o][c];
  if (slot == nullptr) {
    slot = obs_->registry.GetHistogram(
        "net/request_latency_s",
        {{"op", std::string(ToString(op))},
         {"outcome", std::string(ToString(outcome))}});
  }
  return slot;
}

void RequestTelemetry::BeginBatch(uint64_t conn_id) {
  batch_t0_us_ = NowMicros();
  conn_id_ = conn_id;
  mode_ = Mode::kNone;
}

void RequestTelemetry::BeginSampledRequest(uint64_t hash) {
  mode_ = Mode::kNone;
  if (config_.span_sample_every != 0 &&
      (hash & span_mask_) == 0) {
    mode_ = Mode::kSpan;
  } else if (config_.latency_sample_every != 0 &&
             (hash & latency_mask_) == 0) {
    mode_ = Mode::kLatency;
  }
  if (mode_ == Mode::kNone) {
    return;
  }
  current_ = SpanRecord{};
  current_.conn_id = conn_id_;
  t_batch0_us_ = batch_t0_us_;
  t_begin_us_ = NowMicros();
  current_.t_start_us = batch_t0_us_ - origin_us_;
  current_.queue_us = SaturateUs(t_begin_us_ - batch_t0_us_);
}

void RequestTelemetry::OnParsedSampled(TelemetryOp op, uint32_t key_count) {
  current_.op = op;
  current_.keys = key_count;
  if (mode_ == Mode::kSpan) {
    t_parsed_us_ = NowMicros();
    current_.parse_us = SaturateUs(t_parsed_us_ - t_begin_us_);
  }
}

void RequestTelemetry::OnExecutedSampled(RequestOutcome outcome,
                                         uint32_t value_bytes) {
  const int64_t t_end = NowMicros();
  current_.outcome = outcome;
  current_.value_bytes = value_bytes;
  const int64_t total_us = t_end - t_batch0_us_;
  current_.total_us = SaturateUs(total_us);
  if (mode_ == Mode::kSpan) {
    current_.full_span = true;
    current_.store_us = SaturateUs(t_end - t_parsed_us_);
  }

  if (Histogram* h = HistogramFor(current_.op, outcome); h != nullptr) {
    h->Record(static_cast<double>(total_us) * 1e-6);
    ++latencies_recorded_;
  }

  const bool slow =
      config_.slow_request_us > 0 && total_us > config_.slow_request_us;
  if (slow) {
    ++slow_requests_;
    current_.slow = true;
    dump_pending_ = true;
    if (slow_counter_ != nullptr) {
      slow_counter_->Increment();
    }
  }
  if (mode_ == Mode::kSpan || slow) {
    // Completed spans wait for the batch's write stamp; a slow
    // latency-sampled record is committed with the stamps it has.
    batch_spans_.push_back(current_);
  }
  mode_ = Mode::kNone;
}

uint32_t RequestTelemetry::SuspendSampled() {
  uint32_t ticket;
  if (!free_parked_.empty()) {
    ticket = free_parked_.back();
    free_parked_.pop_back();
  } else {
    parked_.emplace_back();
    ticket = static_cast<uint32_t>(parked_.size());
  }
  parked_[ticket - 1] =
      Parked{mode_, current_, t_batch0_us_, t_begin_us_, t_parsed_us_};
  mode_ = Mode::kNone;
  return ticket;
}

void RequestTelemetry::Resume(uint32_t ticket) {
  if (ticket == 0) {
    mode_ = Mode::kNone;
    return;
  }
  const Parked& p = parked_[ticket - 1];
  mode_ = p.mode;
  current_ = p.record;
  t_batch0_us_ = p.t_batch0_us;
  t_begin_us_ = p.t_begin_us;
  t_parsed_us_ = p.t_parsed_us;
  free_parked_.push_back(ticket);
}

void RequestTelemetry::Discard(uint32_t ticket) {
  if (ticket != 0) {
    free_parked_.push_back(ticket);
  }
}

void RequestTelemetry::EndBatch(int64_t write_us) {
  for (SpanRecord& span : batch_spans_) {
    if (span.full_span) {
      span.write_us = SaturateUs(write_us);
      span.total_us = SaturateUs(int64_t{span.total_us} + span.write_us);
    }
    CommitRecord(span);
  }
  batch_spans_.clear();
  mode_ = Mode::kNone;
}

void RequestTelemetry::CommitRecord(SpanRecord record) {
  ++spans_recorded_;
  if (spans_counter_ != nullptr) {
    spans_counter_->Increment();
  }
  if (ring_.size() < config_.flight_ring_capacity) {
    ring_.push_back(record);  // within the reserved storage: no reallocation
  } else {
    ring_[ring_next_] = record;
  }
  ring_next_ = (ring_next_ + 1) % config_.flight_ring_capacity;
  if (obs_ != nullptr && obs_->tracer.enabled()) {
    obs_->tracer.Custom(
        SimTime::FromMicros(record.t_start_us), "request_span",
        {{"conn", EventTracer::JsonNumber(
                      static_cast<int64_t>(record.conn_id))},
         {"op", EventTracer::JsonString(ToString(record.op))},
         {"outcome", EventTracer::JsonString(ToString(record.outcome))},
         {"full_span", record.full_span ? "true" : "false"},
         {"slow", record.slow ? "true" : "false"},
         {"queue_us", EventTracer::JsonNumber(int64_t{record.queue_us})},
         {"parse_us", EventTracer::JsonNumber(int64_t{record.parse_us})},
         {"store_us", EventTracer::JsonNumber(int64_t{record.store_us})},
         {"write_us", EventTracer::JsonNumber(int64_t{record.write_us})},
         {"total_us", EventTracer::JsonNumber(int64_t{record.total_us})},
         {"keys", EventTracer::JsonNumber(static_cast<int64_t>(record.keys))},
         {"bytes", EventTracer::JsonNumber(
                       static_cast<int64_t>(record.value_bytes))}});
  }
}

std::vector<SpanRecord> RequestTelemetry::RingSnapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Once the ring is full, ring_next_ is its oldest record; until then it
  // equals ring_.size(), so the walk starts at 0.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

std::string RequestTelemetry::RenderSpanJson(const SpanRecord& span) {
  std::string out = "{\"t_us\":";
  out += EventTracer::JsonNumber(span.t_start_us);
  out += ",\"type\":\"request_span\",\"conn\":";
  out += EventTracer::JsonNumber(static_cast<int64_t>(span.conn_id));
  out += ",\"op\":";
  out += EventTracer::JsonString(ToString(span.op));
  out += ",\"outcome\":";
  out += EventTracer::JsonString(ToString(span.outcome));
  out += ",\"full_span\":";
  out += span.full_span ? "true" : "false";
  out += ",\"slow\":";
  out += span.slow ? "true" : "false";
  out += ",\"queue_us\":";
  out += EventTracer::JsonNumber(int64_t{span.queue_us});
  out += ",\"parse_us\":";
  out += EventTracer::JsonNumber(int64_t{span.parse_us});
  out += ",\"store_us\":";
  out += EventTracer::JsonNumber(int64_t{span.store_us});
  out += ",\"write_us\":";
  out += EventTracer::JsonNumber(int64_t{span.write_us});
  out += ",\"total_us\":";
  out += EventTracer::JsonNumber(int64_t{span.total_us});
  out += ",\"keys\":";
  out += EventTracer::JsonNumber(static_cast<int64_t>(span.keys));
  out += ",\"bytes\":";
  out += EventTracer::JsonNumber(static_cast<int64_t>(span.value_bytes));
  out += "}";
  return out;
}

std::string RequestTelemetry::RenderFlightRecorderJsonl() const {
  std::string out;
  for (const SpanRecord& span : RingSnapshot()) {
    out += RenderSpanJson(span);
    out += '\n';
  }
  return out;
}

}  // namespace spotcache
