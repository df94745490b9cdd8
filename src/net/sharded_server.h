// ShardedServer: N reactors behind one port, each serving the handler a
// HandlerFactory built for it. The one serving runtime of both serving
// binaries (memcached's worker model).
//
// Each reactor is a NetServer — private epoll loop, private
// RequestTelemetry, private Obs registry — on its own thread, around the
// handler the factory built from (reactor index, reactor Obs). The cache
// factory (ShardedServer(config, obs)) owns one StripedStore of key-hashed
// stripes, each behind its own mutex — one stripe (one global LRU) at
// threads == 1, kStoreStripes above — and builds a ServerCore per reactor
// over it, so any reactor serves any key on its own thread: a get hit pins
// the item's block under the stripe lock and releases it on the reactor's
// thread. spotcache_proxy's factory builds a ProxyCore and its UpstreamPool
// on the reactor's Obs, and no store.
//
// Accept strategy: by default every reactor binds the same port with
// SO_REUSEPORT and the kernel spreads connections by 4-tuple. Where
// SO_REUSEPORT is unavailable (or when `force_dispatch` is set), reactor 0
// binds alone, accepts for everyone, and round-robins the accepted fds to its
// peers as kAdoptConn handoffs through the ShardExchange (sharding.h). That
// handoff is the exchange's only job.
//
// Aggregation: `stats` is the handler's (a ServerCore sums every reactor's
// counters and the store's totals, server_core.h). Reactor 0 serves the
// scrape and writes the metrics dump: the sum of every reactor's registry
// (NetServer::RenderMetrics), read while the others keep serving.
// RequestTelemetryDump() fans out to every reactor; their span dumps append
// to one file under a shared mutex.
//
// threads == 1 runs its one reactor on the calling thread with no exchange,
// byte-identical to a NetServer around the lone handler.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/net/request_handler.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/net/sharding.h"
#include "src/obs/obs.h"

namespace spotcache::net {

/// Upper bound on reactors per server.
inline constexpr uint32_t kMaxShards = 64;

/// Stripes of the shared store when threads > 1. Sixteen keeps two reactors
/// colliding on one stripe lock on ~1/16 of their ops (and four on ~1/5)
/// while each stripe still holds 1/16 of the capacity for its LRU.
inline constexpr uint32_t kStoreStripes = 16;

/// Pins the calling thread to cpu (core % hardware_concurrency); a no-op
/// off Linux.
void PinToCore(uint32_t core);

/// Builds reactor `reactor`'s handler, counting into that reactor's `obs`.
/// Start() calls it once per reactor, in reactor order.
using HandlerFactory = std::function<std::unique_ptr<RequestHandler>(
    uint32_t reactor, Obs* obs)>;

struct ShardedServerConfig {
  /// Per-reactor template. The metrics listener / metrics dump run on
  /// reactor 0 only.
  NetServerConfig base;
  /// Capacity of the cache factory's shared store.
  size_t capacity_bytes = 64 * 1024 * 1024;
  uint32_t threads = 1;  // clamped to [1, kMaxShards]
  /// Pin reactor i to cpu (i % hardware_concurrency); with threads == 1,
  /// the thread that calls Run().
  bool pin_threads = false;
  /// Test hook: use the kAdoptConn accept fallback even where SO_REUSEPORT
  /// is available.
  bool force_dispatch = false;
};

struct CacheFactory;

class ShardedServer {
 public:
  /// Serves the cache: the cache factory's StripedStore and a ServerCore
  /// per reactor. `obs` (optional) only lends its tracer enablement to the
  /// per-shard tracers; every shard records into its own private Obs
  /// (shard_obs()).
  explicit ShardedServer(const ShardedServerConfig& config,
                         Obs* obs = nullptr);
  /// Serves what `factory` builds per reactor (`capacity_bytes` unused).
  ShardedServer(const ShardedServerConfig& config, HandlerFactory factory,
                Obs* obs = nullptr);

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Builds and binds every shard. Returns false (shards torn down) on any
  /// bind/listen failure, and prints nothing: the caller reports it.
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

  /// The cache's store totals and every reactor's request counters (what
  /// `stats` reports); zero when serving another factory's handlers.
  CoreSnapshot TotalSnapshot() const;

 private:
  ShardedServerConfig config_;
  Obs* obs_;
  std::function<int64_t()> clock_;
  uint32_t shard_count_;
  bool using_reuseport_ = false;

  // Declared in dependency order, so each is destroyed before what it uses.
  HandlerFactory factory_;  // owns the cache factory's state, if any
  const CacheFactory* cache_ = nullptr;  // that state
  std::optional<ShardExchange> exchange_;  // built for the accept fallback
  std::mutex dump_mu_;
  std::vector<std::unique_ptr<Obs>> shard_obs_;
  std::vector<std::unique_ptr<RequestHandler>> handlers_;
  std::vector<const MetricsRegistry*> registries_;  // the scrape's sum
  std::vector<std::unique_ptr<NetServer>> shards_;
};

}  // namespace spotcache::net
