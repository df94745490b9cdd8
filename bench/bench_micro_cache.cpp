// Micro-benchmarks of the cache data path (google-benchmark): LRU get/put,
// eviction pressure, the arena shrinking under small-to-large churn, the
// serving tier's ItemStore at 100 B and 4 KB values and filling from empty,
// and Zipf sampling.
// Not a paper artifact; tracks the per-operation cost of the stores the
// serving tier is built on.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/net/item_store.h"
#include "src/util/rng.h"
#include "src/workload/zipf.h"

using namespace spotcache;

namespace {

void BM_LruPut(benchmark::State& state) {
  LruCache<uint64_t, uint64_t> cache(64ull << 20);
  uint64_t key = 0;
  for (auto _ : state) {
    cache.Put(key, key, 4096);
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruPut);

void BM_LruGetHit(benchmark::State& state) {
  LruCache<uint64_t, uint64_t> cache(1ull << 30);
  const uint64_t n = 100'000;
  for (uint64_t i = 0; i < n; ++i) {
    cache.Put(i, i, 4096);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(rng.NextBelow(n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruGetHit);

void BM_LruZipfMixedEvicting(benchmark::State& state) {
  // 4x over-subscription: constant eviction under a Zipf(1.0) stream.
  const uint64_t n = 200'000;
  LruCache<uint64_t, uint64_t> cache(n / 4 * 4096);
  ZipfianGenerator gen(n, 1.0);
  Rng rng(2);
  for (auto _ : state) {
    const uint64_t key = gen.Sample(rng);
    if (!cache.Get(key)) {
      cache.Put(key, key, 4096);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_LruZipfMixedEvicting);

void BM_LruShrinkChurn(benchmark::State& state) {
  // The evicting server's shape: fill with 100k items of 256 B, then churn
  // new items of 256-4096 B. The live count falls ~8x, so the arena shrinks
  // and the buckets rehash down while the puts are being timed.
  constexpr uint64_t kFill = 100'000;
  LruCache<uint64_t, uint64_t> cache(kFill * 256);
  for (uint64_t i = 0; i < kFill; ++i) {
    cache.Put(i, i, 256);
  }
  Rng rng(7);
  uint64_t key = kFill;
  for (auto _ : state) {
    cache.Put(key, key, 256 + rng.NextBelow(3841));
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["live"] = static_cast<double>(cache.size());
  state.counters["index_bytes"] = static_cast<double>(cache.index_bytes());
}
BENCHMARK(BM_LruShrinkChurn);

// ItemStore cases: state.range(0) is the value size in bytes. Keys are
// formatted up front so the loops time the store, not snprintf.
std::vector<std::string> ItemKeys(size_t n) {
  std::vector<std::string> keys(n);
  char buf[32];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "key:%08zu", i);
    keys[i] = buf;
  }
  return keys;
}

constexpr size_t kItemStoreBytes = 16u << 20;
constexpr int64_t kItemNow = 2'000'000'000;

/// Bytes the store charges per item: a 12-byte key + value + 64.
size_t ItemCharge(size_t value_bytes) { return 12 + value_bytes + 64; }

void BM_ItemStoreGetHit(benchmark::State& state) {
  const std::string value(static_cast<size_t>(state.range(0)), 'v');
  // Every key fits: about half the capacity's worth of items.
  const std::vector<std::string> keys =
      ItemKeys(kItemStoreBytes / 2 / ItemCharge(value.size()));
  net::ItemStore store(kItemStoreBytes);
  for (const std::string& key : keys) {
    store.Set(key, 0, 0, value, kItemNow);
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(keys[rng.NextBelow(keys.size())],
                                       kItemNow));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ItemStoreGetHit)->Arg(100)->Arg(4096);

void BM_ItemStoreZipfMixedEvicting(benchmark::State& state) {
  // 4x over-subscription under Zipf(1.0): get, and set on a miss.
  const std::string value(static_cast<size_t>(state.range(0)), 'v');
  const std::vector<std::string> keys =
      ItemKeys(4 * kItemStoreBytes / ItemCharge(value.size()));
  net::ItemStore store(kItemStoreBytes);
  ZipfianGenerator gen(keys.size(), 1.0);
  Rng rng(6);
  uint64_t hits = 0;
  for (auto _ : state) {
    const std::string& key = keys[gen.Sample(rng)];
    if (store.Get(key, kItemNow) != nullptr) {
      ++hits;
    } else {
      store.Set(key, 0, 0, value, kItemNow);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ItemStoreZipfMixedEvicting)->Arg(100)->Arg(4096);

void BM_ItemStoreFill(benchmark::State& state) {
  // The serving benchmark's prefill: a fresh store takes 100k new 100 B
  // sets, so the arena and the buckets grow from empty under the timer. The
  // store is built and freed outside the timed region.
  constexpr size_t kItems = 100'000;
  constexpr size_t kFillBytes = 64u << 20;  // nothing is evicted
  const std::string value(100, 'v');
  const std::vector<std::string> keys = ItemKeys(kItems);
  double fill_s = 0;
  size_t index_bytes = 0;
  for (auto _ : state) {
    net::ItemStore store(kFillBytes);
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& key : keys) {
      store.Set(key, 0, 0, value, kItemNow);
    }
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    fill_s += took.count();
    index_bytes = store.index_bytes();
  }
  const double sets = static_cast<double>(state.iterations() * kItems);
  state.SetItemsProcessed(state.iterations() * kItems);
  state.counters["ns_per_set"] = fill_s * 1e9 / sets;
  state.counters["index_bytes_per_item"] =
      static_cast<double>(index_bytes) / kItems;
}
BENCHMARK(BM_ItemStoreFill)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  ZipfianGenerator gen(1'000'000, static_cast<double>(state.range(0)) / 10.0);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(5)->Arg(10)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
