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

#include "src/util/logging.h"

namespace spotcache::net {

namespace {

bool ReusePortSupported() {
#ifdef SO_REUSEPORT
  return true;
#else
  return false;
#endif
}

void PinToCore(uint32_t shard) {
#ifdef __linux__
  const unsigned ncores = std::thread::hardware_concurrency();
  if (ncores == 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(shard % ncores, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)shard;
#endif
}

}  // namespace

ShardedServer::ShardedServer(const ShardedServerConfig& config, Obs* obs)
    : config_(config),
      obs_(obs),
      shard_count_(std::clamp<uint32_t>(config.threads, 1, kMaxShards)),
      exchange_(shard_count_),
      hub_(shard_count_) {}

bool ShardedServer::Start() {
  using_reuseport_ = shard_count_ > 1 && !config_.force_dispatch &&
                     ReusePortSupported();
  const size_t per_shard_capacity =
      std::max<size_t>(config_.base.core.capacity_bytes / shard_count_, 1);
  for (uint32_t i = 0; i < shard_count_; ++i) {
    NetServerConfig c = config_.base;
    c.core.capacity_bytes = per_shard_capacity;
    if (i > 0) {
      // The scrape listener, metrics dump file, and trace surface live on
      // shard 0; peers keep only their private registries + the shared span
      // file.
      c.metrics_port = -1;
      c.metrics_dump_path.clear();
      // Peers of an ephemeral shard 0 must bind the port it resolved.
      c.port = shards_[0]->port();
      if (!using_reuseport_) {
        c.skip_cache_listener = true;
      }
    }
    c.reuse_port = using_reuseport_;
    shard_obs_.push_back(std::make_unique<Obs>());
    // Per-shard tracers inherit the caller's tracer enablement: each ring is
    // only ever touched by its owning reactor thread, and the shutdown path
    // concatenates the per-shard JSONL streams into the one trace file.
    shard_obs_.back()->tracer.set_enabled(obs_ != nullptr &&
                                          obs_->tracer.enabled());
    auto shard = std::make_unique<NetServer>(c, shard_obs_.back().get());
    if (clock_) {
      shard->SetClock(clock_);
    }
    if (shard_count_ > 1) {
      ShardContext ctx;
      ctx.self = i;
      ctx.count = shard_count_;
      ctx.exchange = &exchange_;
      shard->ConfigureShard(ctx);
      shard->AttachMetricsHub(&hub_, i);
      shard->SetDumpMutex(&dump_mu_);
      if (!using_reuseport_ && i == 0) {
        shard->SetDispatcher(true);
      }
    }
    if (!shard->Start()) {
      SPOTCACHE_LOG(kError) << "shard " << i << " failed to start";
      shards_.clear();
      shard_obs_.clear();
      return false;
    }
    shards_.push_back(std::move(shard));
  }
  if (shard_count_ > 1) {
    for (uint32_t i = 0; i < shard_count_; ++i) {
      exchange_.SetWakeFd(i, shards_[i]->wake_fd());
      exchange_.SetExecutor(i, [s = shards_[i].get()](CrossShardOp* op) {
        s->ExecuteShardOp(op);
      });
    }
  }
  return true;
}

bool ShardedServer::Run() {
  if (shards_.size() == 1) {
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

CoreSnapshot ShardedServer::TotalSnapshot() const {
  CoreSnapshot total;
  for (const auto& shard : shards_) {
    const CoreSnapshot s = shard->core().Snapshot();
    total.curr_items += s.curr_items;
    total.bytes_used += s.bytes_used;
    total.capacity_bytes += s.capacity_bytes;
    total.evictions += s.evictions;
    total.expired_reaped += s.expired_reaped;
    total.cmd_get += s.cmd_get;
    total.cmd_set += s.cmd_set;
    total.cmd_touch += s.cmd_touch;
    total.cmd_delete += s.cmd_delete;
    total.cmd_flush += s.cmd_flush;
    total.get_hits += s.get_hits;
    total.get_misses += s.get_misses;
    total.protocol_errors += s.protocol_errors;
    if (s.start_time >= 0 &&
        (total.start_time < 0 || s.start_time < total.start_time)) {
      total.start_time = s.start_time;
    }
  }
  return total;
}

}  // namespace spotcache::net
