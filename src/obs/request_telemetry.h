// Serving-path request telemetry: sampled spans, always-on latency
// histograms, and a slow-request flight recorder.
//
// The design splits cost three ways so the hot path stays inside a ~2%
// overhead budget on bench_net_loopback (gated in CI):
//
//   * Every request pays only a PRNG step + branch (a couple of ns). The
//     sampling decision is a splitmix-style hash of a per-telemetry counter,
//     not `counter % N`, so pipelined batches (which present requests at
//     fixed positions) cannot alias against the sampling lattice.
//   * A latency-sampled request (1/latency_sample_every, default 1/16) pays
//     one extra clock read at completion; its total latency (measured from
//     the batch's recv timestamp, so in-batch queueing is included) lands in
//     an always-on per-(op, outcome) registry histogram. Uniform sampling
//     preserves the shape of the distribution, so the histogram quantiles
//     estimate true server-side quantiles — and they use the same
//     LogHistogram geometry (1 us floor, 5% growth) as the load generator,
//     so server and client p99 are directly comparable.
//   * A span-sampled request (1/span_sample_every, default 1/256) carries
//     monotonic timestamps through parse -> store -> response-write.
//     Finished spans go to the flight-recorder ring always, and to the
//     EventTracer as `request_span` JSONL events when tracing is enabled.
//
// The flight recorder is a fixed-capacity ring of recent span records. Its
// storage is reserved at construction but neither constructed nor zeroed,
// so a page of it becomes resident only when a record is first written
// there: an idle reactor holds almost none of its 4096 × 48 B = 192 KiB, and
// one that has recorded n spans about min(n, capacity) × 48 B, rounded up to
// pages. Once full, the ring overwrites its oldest record in place. A request
// whose measured latency exceeds `slow_request_us` is force-recorded into
// the ring (whatever stamps it has) and raises `dump_pending`, which the
// server loop turns into a JSONL dump — the same dump SIGUSR1 triggers.
//
// Thread model: single-threaded, same as the epoll loop that owns it. The
// only cross-thread surface is the server's dump-request flag, which lives
// in NetServer, not here.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/time.h"

namespace spotcache {

/// The largest flight-recorder capacity --span-ring accepts: 1,048,576
/// records, 48 MiB per reactor once full.
inline constexpr uint32_t kMaxFlightRingCapacity = uint32_t{1} << 20;

struct RequestTelemetryConfig {
  /// Span sampling period (rounded up to a power of two; 0 disables spans).
  uint32_t span_sample_every = 256;
  /// Latency-histogram sampling period (power of two; 0 disables, 1 = every
  /// request).
  uint32_t latency_sample_every = 16;
  /// Flight-recorder capacity in span records (at most
  /// kMaxFlightRingCapacity from the serving binaries' --span-ring).
  uint32_t flight_ring_capacity = 4096;
  /// Auto-capture threshold: a request slower than this (microseconds,
  /// measured from batch arrival to completion) is force-recorded and flags
  /// a flight-recorder dump. <= 0 disables auto-capture.
  int64_t slow_request_us = 50'000;
  /// Seed for the sampling hash (deterministic per seed).
  uint64_t seed = 0x5eed'cafe;
};

/// Coarse op class for the (op, outcome) latency histograms.
enum class TelemetryOp : uint8_t {
  kGet,
  kSet,
  kDelete,
  kTouch,
  kOther,
};

/// Per-request outcome: the serving path's verdict, worst-first for
/// multi-key retrievals (error > shed > backup > miss > hit).
enum class RequestOutcome : uint8_t {
  kHit,
  kMiss,
  kShed,
  kBackup,
  kError,
  kStored,
  kNotStored,
  kOther,
};

std::string_view ToString(TelemetryOp op);
std::string_view ToString(RequestOutcome o);

/// One recorded request span. Times are microseconds; t_start_us is on the
/// server's loop clock (microseconds since Run() began). The durations are
/// 32-bit and saturate at UINT32_MAX (about 71 minutes; SaturateUs), which
/// keeps a record at 48 bytes: the flight-recorder ring holds thousands.
struct SpanRecord {
  int64_t t_start_us = 0;
  uint64_t conn_id = 0;
  TelemetryOp op = TelemetryOp::kOther;
  RequestOutcome outcome = RequestOutcome::kOther;
  bool full_span = false;  // phase stamps valid (span-sampled)
  bool slow = false;       // force-captured by the slow-request detector
  uint32_t queue_us = 0;   // batch recv -> parse begin
  uint32_t parse_us = 0;   // parse begin -> request materialized
  uint32_t store_us = 0;   // ItemStore ops + response assembly
  uint32_t write_us = 0;   // this batch's flush (shared across its spans)
  uint32_t total_us = 0;   // batch recv -> completion (+ write when full)
  uint32_t keys = 0;
  uint32_t value_bytes = 0;
};

static_assert(sizeof(SpanRecord) == 48,
              "two 64-bit fields, four 1-byte fields, seven 32-bit fields");

/// A span duration in a SpanRecord field: `us` clamped to [0, UINT32_MAX].
constexpr uint32_t SaturateUs(int64_t us) {
  return us <= 0 ? 0
         : us >= int64_t{UINT32_MAX} ? UINT32_MAX
                                     : static_cast<uint32_t>(us);
}

class RequestTelemetry {
 public:
  /// `obs` must outlive the telemetry; histograms and counters resolve once
  /// here. A null obs records spans/ring only (no registry publication).
  RequestTelemetry(const RequestTelemetryConfig& config, Obs* obs);

  const RequestTelemetryConfig& config() const { return config_; }

  /// Steady-clock microseconds — the one clock every stamp uses. The server
  /// loop shares it so loop events and spans land on the same timeline.
  static int64_t NowMicros();
  /// Sets the zero point of emitted t_start_us values (the server passes its
  /// Run() start stamp, making span times "microseconds since Run began").
  void SetOrigin(int64_t origin_us) { origin_us_ = origin_us; }

  // --- Batch lifecycle (one recv/drain batch on one connection). --------

  /// Stamps the batch arrival time; all latencies measured until EndBatch
  /// are relative to it.
  void BeginBatch(uint64_t conn_id);

  /// True when spans finished in this batch are waiting for their write
  /// stamp (tells the server whether timing the flush is worth a clock read).
  bool batch_has_spans() const { return !batch_spans_.empty(); }

  /// Attributes this batch's response flush to every span it finalized and
  /// commits them (ring + tracer). `write_us` may be 0 (nothing flushed).
  void EndBatch(int64_t write_us);

  // --- Request lifecycle (inside a batch). ------------------------------

  /// Advances the sampler and opens a request record if sampled. Call
  /// immediately before attempting to parse the next request. Inline so the
  /// unsampled majority pays a hash and a branch, not a function call.
  void BeginRequest() {
    ++requests_seen_;
    const uint64_t h = Mix(sample_state_ + requests_seen_);
    if (((h & span_mask_) != 0 || config_.span_sample_every == 0) &&
        ((h & latency_mask_) != 0 || config_.latency_sample_every == 0)) {
      mode_ = Mode::kNone;
      return;
    }
    BeginSampledRequest(h);
  }
  /// True when the current request is span-sampled (phase stamps wanted).
  bool span_active() const { return mode_ == Mode::kSpan; }

  /// The parser produced a complete request.
  void OnParsed(TelemetryOp op, uint32_t key_count) {
    if (mode_ != Mode::kNone) {
      OnParsedSampled(op, key_count);
    }
  }
  /// The request finished executing (response assembled, not yet written).
  void OnExecuted(RequestOutcome outcome, uint32_t value_bytes) {
    if (mode_ != Mode::kNone) {
      OnExecutedSampled(outcome, value_bytes);
    }
  }
  /// The parser needed more bytes or hit a protocol error mid-request: the
  /// open record is discarded (errors with a complete command line should
  /// instead run OnParsed + OnExecuted(kError)).
  void OnAbandoned() { mode_ = Mode::kNone; }

  // --- Deferred requests (reply rendered after the batch that parsed it). -

  /// Parks the open request record so a later batch can finish it, and
  /// returns its ticket (0 when the request is unsampled: nothing to park).
  uint32_t Suspend() {
    return mode_ == Mode::kNone ? 0 : SuspendSampled();
  }
  /// Re-opens parked record `ticket` as the current request; call inside the
  /// batch that finishes it, then OnExecuted(). Its latency still counts
  /// from the arrival of the batch that parsed it.
  void Resume(uint32_t ticket);
  /// Forgets parked record `ticket` (its connection closed first).
  void Discard(uint32_t ticket);

  // --- Flight recorder. -------------------------------------------------

  /// True when a slow request asked for a dump since the last Clear.
  bool dump_pending() const { return dump_pending_; }
  void clear_dump_pending() { dump_pending_ = false; }

  size_t ring_size() const { return ring_.size(); }
  /// Oldest-to-newest snapshot of the ring.
  std::vector<SpanRecord> RingSnapshot() const;
  /// The ring as `request_span` JSONL lines (oldest first), one per record —
  /// the same shape the EventTracer emits for live span events.
  std::string RenderFlightRecorderJsonl() const;

  // --- Introspection (stats / tests). -----------------------------------

  uint64_t requests_seen() const { return requests_seen_; }
  uint64_t spans_recorded() const { return spans_recorded_; }
  uint64_t latencies_recorded() const { return latencies_recorded_; }
  uint64_t slow_requests() const { return slow_requests_; }

  /// Serializes one span record as a JSONL `request_span` line (no trailing
  /// newline). Shared by the tracer path, the ring dump, and tests.
  static std::string RenderSpanJson(const SpanRecord& span);

 private:
  enum class Mode : uint8_t { kNone, kLatency, kSpan };

  /// splitmix64 finalizer: decorrelates the sampling decision from the
  /// request counter so fixed batch layouts cannot alias the lattice.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // Out-of-line slow paths for the sampled minority.
  void BeginSampledRequest(uint64_t hash);
  uint32_t SuspendSampled();
  void OnParsedSampled(TelemetryOp op, uint32_t key_count);
  void OnExecutedSampled(RequestOutcome outcome, uint32_t value_bytes);

  void CommitRecord(SpanRecord record);
  Histogram* HistogramFor(TelemetryOp op, RequestOutcome outcome);

  static constexpr size_t kNumOps = 5;
  static constexpr size_t kNumOutcomes = 8;

  RequestTelemetryConfig config_;
  Obs* obs_;
  uint32_t span_mask_ = 0;     // sample when (hash & mask) == 0
  uint32_t latency_mask_ = 0;  // ditto (span-sampled implies latency)
  uint64_t sample_state_;
  int64_t origin_us_ = 0;

  // Batch state.
  int64_t batch_t0_us_ = 0;
  uint64_t conn_id_ = 0;
  // Spans completed in this batch, waiting for the flush stamp.
  std::vector<SpanRecord> batch_spans_;

  // Open request state.
  Mode mode_ = Mode::kNone;
  SpanRecord current_;
  int64_t t_batch0_us_ = 0;  // arrival of the batch that parsed it
  int64_t t_begin_us_ = 0;   // steady-clock stamp at BeginRequest
  int64_t t_parsed_us_ = 0;  // steady-clock stamp at OnParsed

  /// A sampled request parked by Suspend() until its reply is rendered.
  struct Parked {
    Mode mode = Mode::kNone;
    SpanRecord record;
    int64_t t_batch0_us = 0;
    int64_t t_begin_us = 0;
    int64_t t_parsed_us = 0;
  };
  std::vector<Parked> parked_;  // ticket t lives at parked_[t - 1]
  std::vector<uint32_t> free_parked_;

  // Flight recorder ring: capacity reserved up front, grown by push_back
  // until full, then overwritten in place at ring_next_.
  std::vector<SpanRecord> ring_;
  size_t ring_next_ = 0;
  bool dump_pending_ = false;

  uint64_t requests_seen_ = 0;
  uint64_t spans_recorded_ = 0;
  uint64_t latencies_recorded_ = 0;
  uint64_t slow_requests_ = 0;

  // Lazily resolved per-(op, outcome) latency histograms (seconds).
  Histogram* hists_[kNumOps][kNumOutcomes] = {};
  Counter* spans_counter_ = nullptr;
  Counter* slow_counter_ = nullptr;
};

}  // namespace spotcache
