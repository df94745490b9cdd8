// ShardedServer: N reactor shards behind one port.
//
// Each shard is a full NetServer — private epoll loop, private ItemStore
// partition, private RequestTelemetry, private Obs registry — running on its
// own thread. Keys are partitioned by ShardOfKey (splitmix64-finalized
// HashString modulo shard count), so the per-request get/set path on a
// shard-local key takes no locks and uses no mailbox. Cross-shard keys travel
// through the ShardExchange's bounded SPSC mailboxes (see sharding.h).
//
// Accept strategy: by default every shard binds the same port with
// SO_REUSEPORT and the kernel spreads connections by 4-tuple. Where
// SO_REUSEPORT is unavailable (or when `force_dispatch` is set — the test
// hook), shard 0 binds alone, accepts for everyone, and round-robins the
// accepted fds to its peers via kAdoptConn handoffs.
//
// Aggregation surfaces:
//   * `stats` / `stats spotcache` — the serving shard gathers kSnapshot
//     round-trips from every peer at the stats barrier, so totals are
//     coherent (ServerCore::GatherPeerSnapshots).
//   * Prometheus scrape (`--metrics-port`, shard 0's loop) — shards
//     epoch-publish registry copies into a MetricsHub; the scrape renders
//     the aggregate, never a mid-update counter (metrics_hub.h).
//   * SIGUSR1 flight recorder — RequestTelemetryDump() fans out to every
//     shard (async-signal-safe); dumps append to one shared span file under
//     a shared mutex, and shard 0 writes the hub-aggregated metrics file.
//
// threads == 1 is a true passthrough: one un-sharded NetServer, no exchange,
// no hub, no extra atomics — byte-identical behavior to the plain server.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/server.h"
#include "src/net/sharding.h"
#include "src/obs/metrics_hub.h"
#include "src/obs/obs.h"

namespace spotcache::net {

/// Wake masks and the dispatch round-robin assume shard indices fit a
/// uint64_t bitmask.
inline constexpr uint32_t kMaxShards = 64;

struct ShardedServerConfig {
  /// Per-shard template. `core.capacity_bytes` is the TOTAL cache budget,
  /// split evenly across shards. The metrics listener / metrics dump run on
  /// shard 0 only.
  NetServerConfig base;
  uint32_t threads = 1;  // clamped to [1, kMaxShards]
  /// Pin shard i to cpu (i % hardware_concurrency).
  bool pin_threads = false;
  /// Test hook: use the kAdoptConn accept fallback even where SO_REUSEPORT
  /// is available.
  bool force_dispatch = false;
};

class ShardedServer {
 public:
  /// `obs` (optional) only lends its tracer enablement to the per-shard
  /// tracers; every shard records into its own private Obs (shard_obs()).
  explicit ShardedServer(const ShardedServerConfig& config,
                         Obs* obs = nullptr);

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Builds and binds every shard. Returns false (shards torn down) on any
  /// bind/listen failure.
  bool Start();
  /// Spawns one thread per shard and blocks until all of them exit (Stop()
  /// or fatal loop errors). Returns false if any shard loop failed.
  bool Run();
  /// Thread-safe, async-signal-safe-adjacent shutdown (atomic + eventfd per
  /// shard).
  void Stop();
  /// Fans the flight-recorder dump request out to every shard.
  /// Async-signal-safe: per shard one atomic store + one write(2).
  void RequestTelemetryDump();
  /// Injects the expiry clock into every shard (kept across Start(), so it
  /// may be set before or after it). Call before Run().
  void SetClock(std::function<int64_t()> now_unix);

  /// The shared cache port (after Start()).
  uint16_t port() const { return shards_.empty() ? 0 : shards_[0]->port(); }
  /// Shard 0's metrics port (0 when the scrape listener is off).
  uint16_t metrics_port() const {
    return shards_.empty() ? 0 : shards_[0]->metrics_port();
  }
  uint32_t shard_count() const { return shard_count_; }
  /// True when serving through per-shard SO_REUSEPORT listeners (false:
  /// dispatch fallback). Meaningful after Start().
  bool using_reuseport() const { return using_reuseport_; }

  NetServer& shard(size_t i) { return *shards_[i]; }
  Obs& shard_obs(size_t i) { return *shard_obs_[i]; }
  MetricsHub& hub() { return hub_; }

  /// Sum of every shard's core counters. Only coherent once the loops have
  /// stopped (final stats reporting).
  CoreSnapshot TotalSnapshot() const;

 private:
  ShardedServerConfig config_;
  Obs* obs_;
  std::function<int64_t()> clock_;
  uint32_t shard_count_;
  bool using_reuseport_ = false;

  ShardExchange exchange_;
  MetricsHub hub_;  // one slot per shard
  std::mutex dump_mu_;
  std::vector<std::unique_ptr<Obs>> shard_obs_;
  std::vector<std::unique_ptr<NetServer>> shards_;
};

}  // namespace spotcache::net
