// The open-loop traffic engine.
//
// RunOpenLoop drives a deterministic op stream (op_stream.h) over many
// concurrent non-blocking connections against a memcached-protocol server.
// Each operation is released at its *scheduled* send time and its latency is
// measured from that scheduled time — so when the server falls behind, the
// backlog (socket buffers, kernel queues, the server's own pending buffers)
// is measured, not hidden by client self-throttling. That is the defining
// difference from the closed-loop bench_net_loopback numbers: this harness
// answers "what does p99 look like at an offered rate of X", which is the
// SLO question the paper's cost-efficacy claims hinge on.
//
// Per-connection net::ReplyReaders (the tree's one strict reply grammar) turn
// pipelined responses into hit/miss/error dispositions in request order; a
// reply outside the grammar fails its connection. Latencies land in
// per-connection, per-segment LogHistograms and are merged deterministically
// (connection order) at the end of the run. Error replies (e.g. the
// resilience ladder's SERVER_ERROR sheds) complete their request but are
// excluded from the latency distribution and counted separately.
//
// Connections are dialled, and their shards probed, through net::NetClient,
// which then hands each socket to the engine.
//
// The op stream itself is a pure function of (config, seed); only the
// measured latencies depend on wall-clock behavior.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/loadgen/latency_recorder.h"
#include "src/loadgen/op_stream.h"
#include "src/util/stats.h"

namespace spotcache::loadgen {

struct EngineConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connections = 8;
  OpStreamConfig stream;
  /// Store every key once (pipelined, closed-loop, unmeasured) before the
  /// open-loop run so gets hit unless the server sheds or evicts.
  bool prefill = true;
  /// How long after the last scheduled op to wait for in-flight replies.
  double drain_timeout_s = 2.0;
  int connect_timeout_ms = 5000;
  std::string key_prefix = "lg:";
  /// Probe each connection with one `stats spotcache` round-trip (before the
  /// measured window) to learn which reactor shard its 4-tuple landed on.
  /// Against a sharded server, `connections` should be a multiple of the
  /// server's shard count so offered load spreads evenly (the CLI's
  /// --server-shards flag rounds it up).
  bool probe_shards = true;
  /// Completion-time bucket width for LoadGenResult::windows (hit-rate
  /// timelines through fleet churn). 0 disables windowing.
  int64_t window_us = 0;
  /// Cache-aside repair: every get miss immediately issues a set of the
  /// missed key on the same connection, the way a read-through client
  /// refills keys a revoked node took with it. Repair sets ride outside the
  /// paced schedule but count in scheduled/completed/sets totals.
  bool read_through = false;
};

/// Completion counts for one window_us bucket of the run (completion time,
/// not scheduled time: a reply delayed by a dying upstream lands in the
/// bucket where the client actually saw it).
struct LoadGenWindow {
  int64_t start_us = 0;
  uint64_t gets = 0;        // classified get replies (hit + miss)
  uint64_t get_hits = 0;
  uint64_t get_misses = 0;
  uint64_t sets = 0;        // non-error non-get completions
  uint64_t errors = 0;      // error replies (e.g. SERVER_ERROR sheds)
};

/// Stats for one traffic segment: the baseline stream or one scripted phase.
struct SegmentStats {
  std::string label;
  double duration_s = 0.0;
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t get_misses = 0;
  double offered_rps = 0.0;   // scheduled / duration
  double achieved_rps = 0.0;  // completed / duration
  LatencySummary latency;
};

struct LoadGenResult {
  bool ok = false;
  std::string error;  // set when ok == false

  double run_duration_s = 0.0;  // schedule duration (offered window)
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t get_misses = 0;
  uint64_t abandoned = 0;      // in flight at drain deadline / on dead conns
  uint64_t failed_conns = 0;

  LatencySummary latency;      // merged across connections and segments
  LogHistogram merged_hist = LogHistogram(1e-6, 1.05);

  /// [0] = baseline, [1 + i] = phases[i].
  std::vector<SegmentStats> segments;

  /// Completions bucketed by wall-clock second of the run (JSONL traces).
  std::vector<uint64_t> per_second_completed;

  /// Completion windows (empty unless EngineConfig::window_us > 0).
  std::vector<LoadGenWindow> windows;

  /// Shard the server reported for each connection (`stats spotcache` probe;
  /// 0 against a single-threaded server, -1 when the probe failed). Empty
  /// when probing is disabled.
  std::vector<int> conn_shards;
  /// Connections per shard (index = shard id), derived from conn_shards.
  std::vector<uint64_t> shard_conn_counts;
  /// Shard count the server reported (1 for the single-threaded server).
  uint32_t server_shards = 1;
};

LoadGenResult RunOpenLoop(const EngineConfig& config);

/// Closed-loop, unmeasured prefill: stores keys `<key_prefix>0` ..
/// `<key_prefix><n-1>`, each holding `value`, over one connection in
/// pipelined batches of 256 sets. True when every set was stored.
bool Prefill(const std::string& host, uint16_t port,
             std::string_view key_prefix, uint64_t n, std::string_view value,
             int timeout_ms);

}  // namespace spotcache::loadgen
