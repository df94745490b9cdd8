// The cache factory: what ShardedServer(config, obs) serves. It lives apart
// from the rest of ShardedServer so that a binary serving another handler
// (spotcache_proxy) links no cache code.

#include <memory>
#include <vector>

#include "src/net/server_core.h"
#include "src/net/sharded_server.h"
#include "src/net/striped_store.h"

namespace spotcache::net {

/// The store every reactor serves from, and every reactor's core for the
/// `stats` sums (ShardContext::cores).
struct CacheFactory {
  CacheFactory(size_t capacity_bytes, uint32_t reactors)
      : store(capacity_bytes, reactors > 1 ? kStoreStripes : 1) {}
  StripedStore store;
  std::vector<const ServerCore*> cores;
};

ShardedServer::ShardedServer(const ShardedServerConfig& config, Obs* obs)
    : ShardedServer(config, HandlerFactory(), obs) {
  auto cache =
      std::make_shared<CacheFactory>(config_.capacity_bytes, shard_count_);
  cache_ = cache.get();
  factory_ = [this, cache](uint32_t reactor, Obs* reactor_obs) {
    auto core = std::make_unique<ServerCore>(
        ServerCoreConfig{config_.capacity_bytes}, reactor_obs);
    core->ConfigureShard({reactor, shard_count_, &cache->store, &cache->cores});
    cache->cores.resize(reactor);  // a Start() after a failed one
    cache->cores.push_back(core.get());
    return core;
  };
}

CoreSnapshot ShardedServer::TotalSnapshot() const {
  // Reactor 0's core sums every reactor's counters.
  return cache_ != nullptr && !handlers_.empty() ? cache_->cores[0]->Snapshot()
                                                 : CoreSnapshot{};
}

}  // namespace spotcache::net
