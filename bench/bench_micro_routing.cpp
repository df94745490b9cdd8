// Micro-benchmarks of the routing layer (google-benchmark): consistent-hash
// lookup and rebalance.

#include <benchmark/benchmark.h>

#include "src/routing/consistent_hash.h"
#include "src/util/rng.h"

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

}  // namespace

BENCHMARK_MAIN();
