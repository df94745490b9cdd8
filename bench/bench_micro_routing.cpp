// Micro-benchmarks of the routing layer (google-benchmark): consistent-hash
// lookup and rebalance, Bloom filter, Count-Min sketch, Space-Saving, and the
// full partitioner observe path.

#include <benchmark/benchmark.h>

#include "src/routing/bloom_filter.h"
#include "src/routing/consistent_hash.h"
#include "src/routing/count_min_sketch.h"
#include "src/routing/heavy_hitters.h"
#include "src/routing/key_partitioner.h"
#include "src/util/rng.h"
#include "src/workload/zipf.h"

using namespace spotcache;

namespace {

void BM_RingLookup(benchmark::State& state) {
  ConsistentHashRing ring;
  for (uint64_t n = 1; n <= static_cast<uint64_t>(state.range(0)); ++n) {
    ring.SetNode(n, 1.0);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.NodeFor(rng()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingLookup)->Arg(8)->Arg(64)->Arg(512);

void BM_RingRebalance(benchmark::State& state) {
  ConsistentHashRing ring;
  for (uint64_t n = 1; n <= 32; ++n) {
    ring.SetNode(n, 1.0);
  }
  double w = 1.0;
  for (auto _ : state) {
    w = w >= 2.0 ? 1.0 : w + 0.125;
    ring.SetNode(7, w);
  }
}
BENCHMARK(BM_RingRebalance);

void BM_BloomAddQuery(benchmark::State& state) {
  BloomFilter filter(100'000, 0.01);
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    if ((++i & 1) == 0) {
      filter.Add(rng());
    } else {
      benchmark::DoNotOptimize(filter.MightContain(rng()));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomAddQuery);

void BM_CountMinAdd(benchmark::State& state) {
  CountMinSketch sketch(1e-4, 1e-3);
  Rng rng(4);
  for (auto _ : state) {
    sketch.Add(rng() & 0xFFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinAdd);

void BM_HeavyHittersAdd(benchmark::State& state) {
  HeavyHitters hitters(4096);
  ZipfianGenerator gen(1'000'000, 1.0);
  Rng rng(5);
  for (auto _ : state) {
    hitters.Add(gen.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeavyHittersAdd);

void BM_PartitionerObserve(benchmark::State& state) {
  KeyPartitioner partitioner;
  ZipfianGenerator gen(1'000'000, 1.0);
  Rng rng(6);
  for (auto _ : state) {
    partitioner.Observe(gen.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionerObserve);

}  // namespace

BENCHMARK_MAIN();
