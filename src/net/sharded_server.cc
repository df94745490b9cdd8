#include "src/net/sharded_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace spotcache::net {

namespace {

bool ReusePortSupported() {
#ifdef SO_REUSEPORT
  return true;
#else
  return false;
#endif
}

}  // namespace

void PinToCore(uint32_t core) {
#ifdef __linux__
  const unsigned ncores = std::thread::hardware_concurrency();
  if (ncores == 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % ncores, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

ShardedServer::ShardedServer(const ShardedServerConfig& config,
                             HandlerFactory factory, Obs* obs)
    : config_(config),
      obs_(obs),
      shard_count_(std::clamp<uint32_t>(config.threads, 1, kMaxShards)),
      factory_(std::move(factory)) {}

bool ShardedServer::Start() {
  using_reuseport_ = shard_count_ > 1 && !config_.force_dispatch &&
                     ReusePortSupported();
  // The exchange carries the accept fallback's handoffs and nothing else, so
  // it is built only for that mode: SO_REUSEPORT reactors (and a lone
  // reactor) hold none of its rings.
  const bool dispatch = shard_count_ > 1 && !using_reuseport_;
  if (dispatch) {
    exchange_.emplace(shard_count_);
  }
  for (uint32_t i = 0; i < shard_count_; ++i) {
    NetServerConfig c = config_.base;
    if (i > 0) {
      // The scrape listener, metrics dump file, and trace surface live on
      // shard 0; peers keep only their private registries + the shared span
      // file.
      c.metrics_port = -1;
      c.metrics_dump_path.clear();
      // Peers of an ephemeral shard 0 must bind the port it resolved.
      c.port = shards_[0]->port();
      c.skip_cache_listener = !using_reuseport_;
    }
    c.reuse_port = using_reuseport_;
    shard_obs_.push_back(std::make_unique<Obs>());
    Obs* shard_obs = shard_obs_.back().get();
    // Per-shard tracers inherit the caller's tracer enablement: each ring is
    // only ever touched by its owning reactor thread, and the shutdown path
    // concatenates the per-shard JSONL streams into the one trace file.
    shard_obs->tracer.set_enabled(obs_ != nullptr && obs_->tracer.enabled());
    handlers_.push_back(factory_(i, shard_obs));
    registries_.push_back(&shard_obs->registry);
    auto shard =
        std::make_unique<NetServer>(c, handlers_.back().get(), shard_obs);
    if (clock_) {
      shard->SetClock(clock_);
    }
    shard->ConfigureShard(
        {i, dispatch ? &*exchange_ : nullptr, &registries_, &dump_mu_});
    if (!shard->Start()) {
      shards_.clear();
      registries_.clear();
      handlers_.clear();
      shard_obs_.clear();
      return false;
    }
    shards_.push_back(std::move(shard));
  }
  if (dispatch) {
    for (uint32_t i = 0; i < shard_count_; ++i) {
      exchange_->SetWakeFd(i, shards_[i]->wake_fd());
      exchange_->SetExecutor(i, [s = shards_[i].get()](CrossShardOp* op) {
        s->ExecuteShardOp(op);
      });
    }
  }
  return true;
}

bool ShardedServer::Run() {
  if (shards_.size() == 1) {
    if (config_.pin_threads) {
      PinToCore(0);
    }
    return shards_[0]->Run();
  }
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (uint32_t i = 0; i < shard_count_; ++i) {
    threads.emplace_back([this, i, &ok] {
      if (config_.pin_threads) {
        PinToCore(i);
      }
      if (!shards_[i]->Run()) {
        ok.store(false, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return ok.load(std::memory_order_relaxed);
}

void ShardedServer::Stop() {
  for (auto& shard : shards_) {
    shard->Stop();
  }
}

void ShardedServer::RequestTelemetryDump() {
  for (auto& shard : shards_) {
    shard->RequestTelemetryDump();
  }
}

void ShardedServer::SetClock(std::function<int64_t()> now_unix) {
  clock_ = std::move(now_unix);
  for (auto& shard : shards_) {
    shard->SetClock(clock_);
  }
}

}  // namespace spotcache::net
