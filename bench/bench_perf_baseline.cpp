// Performance baseline for the hot paths touched by the parallel-engine PR:
// the flat LRU vs the node/map reference, the incremental vs rescan lifetime
// predictor, the warm- vs cold-started simplex, and the serial vs parallel
// experiment grid.
//
// Writes a machine-readable BENCH_perf.json (path overridable by argv;
// `--quick` shrinks the workloads for CI smoke runs) so regressions are
// diffable across commits. The grid section also records the digest match
// between serial and parallel execution — the parallel engine must be a pure
// wall-clock optimization.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/cache/lru_cache_ref.h"
#include "src/cloud/spot_price_model.h"
#include "src/core/experiment.h"
#include "src/exec/experiment_grid.h"
#include "src/exec/thread_pool.h"
#include "src/opt/simplex.h"
#include "src/predict/spot_predictor.h"
#include "src/util/rng.h"

using namespace spotcache;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct CacheScore {
  double put_ops_s = 0.0;
  double get_ops_s = 0.0;
  uint64_t hits = 0;
};

template <typename Cache>
CacheScore DriveCache(size_t ops, size_t key_space, size_t capacity_bytes) {
  Cache cache(capacity_bytes);
  CacheScore score;
  // Fill, then alternate put/get phases over a skewed-ish key stream. The
  // same seed drives both implementations, so hit counts must agree.
  Rng rng(0xcafe);
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t key = rng.NextBelow(key_space);
    cache.Put(key, static_cast<uint32_t>(key), 512 + (key & 1023));
  }
  score.put_ops_s = static_cast<double>(ops) / SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < ops; ++i) {
    (void)cache.Get(rng.NextBelow(key_space));
  }
  score.get_ops_s = static_cast<double>(ops) / SecondsSince(t0);
  score.hits = cache.hits();
  return score;
}

// A procurement-shaped LP (k blocks of [g_hot, g_cold, n, dealloc]) whose
// coefficients drift slot to slot, like the real per-slot problem.
LinearProgram MakeSlotLp(size_t k, int slot) {
  LinearProgram lp(4 * k);
  const auto gh = [](size_t i) { return 4 * i + 0; };
  const auto gc = [](size_t i) { return 4 * i + 1; };
  const auto nn = [](size_t i) { return 4 * i + 2; };
  const auto dd = [](size_t i) { return 4 * i + 3; };
  const double drift = 1.0 + 0.02 * ((slot * 7) % 11 - 5) / 5.0;
  std::vector<std::pair<size_t, double>> hot_sum, cold_sum, od_data;
  for (size_t i = 0; i < k; ++i) {
    const double price = (0.05 + 0.11 * static_cast<double>(i)) * drift;
    const double ram = 8.0 + 4.0 * static_cast<double>(i % 3);
    const double rate = (40e3 + 15e3 * static_cast<double>(i % 4)) * drift;
    lp.SetObjective(gh(i), i % 2 == 0 ? 0.0 : 0.4 / drift);
    lp.SetObjective(gc(i), i % 2 == 0 ? 0.0 : 0.02 / drift);
    lp.SetObjective(nn(i), price);
    lp.SetObjective(dd(i), 0.01);
    hot_sum.push_back({gh(i), 1.0});
    cold_sum.push_back({gc(i), 1.0});
    if (i % 2 == 0) {
      od_data.push_back({gh(i), 1.0});
      od_data.push_back({gc(i), 1.0});
    }
    lp.AddGreaterEqual({{nn(i), ram}, {gh(i), -1.0}, {gc(i), -1.0}}, 0.0);
    lp.AddGreaterEqual({{nn(i), rate}, {gh(i), -4e3}, {gc(i), -600.0}}, 0.0);
    lp.AddGreaterEqual({{nn(i), 1.0}, {dd(i), 1.0}},
                       static_cast<double>(2 + (slot + static_cast<int>(i)) % 3));
  }
  const double hot_gb = 11.0 * drift;
  const double cold_gb = 49.0 * drift;
  lp.AddEquality(hot_sum, hot_gb);
  lp.AddEquality(cold_sum, cold_gb);
  lp.AddGreaterEqual(od_data, 0.1 * (hot_gb + cold_gb));
  return lp;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  const int threads = DefaultThreadCount();
  std::fprintf(stderr, "perf baseline (%s): %d worker threads\n",
               quick ? "quick" : "full", threads);

  // --- Cache: reference list+map LRU vs the flat arena LRU. ---------------
  const size_t cache_ops = quick ? 400'000 : 2'000'000;
  const size_t key_space = 300'000;
  const size_t cache_bytes = 150'000 * 1024;  // ~half the key space resident
  const CacheScore ref =
      DriveCache<ReferenceLruCache<uint64_t, uint32_t>>(cache_ops, key_space,
                                                        cache_bytes);
  const CacheScore flat =
      DriveCache<LruCache<uint64_t, uint32_t>>(cache_ops, key_space,
                                               cache_bytes);
  const bool cache_match = ref.hits == flat.hits;
  std::fprintf(stderr,
               "cache: put %.2fM/s -> %.2fM/s, get %.2fM/s -> %.2fM/s (%s)\n",
               ref.put_ops_s / 1e6, flat.put_ops_s / 1e6, ref.get_ops_s / 1e6,
               flat.get_ops_s / 1e6, cache_match ? "hits match" : "HIT MISMATCH");

  // --- Predictor: full-window rescan vs incremental advance. --------------
  double rescan_pred_s = 0.0;
  double incr_pred_s = 0.0;
  {
    const InstanceCatalog catalog = InstanceCatalog::Default();
    const auto markets =
        MakeEvaluationMarkets(catalog, Duration::Days(quick ? 20 : 45), 7);
    const Duration step = Duration::Hours(1);
    const auto drive = [&](bool incremental) {
      LifetimePredictor::Config cfg;
      cfg.incremental = incremental;
      size_t calls = 0;
      double sink = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      for (const auto& m : markets) {
        const LifetimePredictor predictor(cfg);  // fresh state per market
        for (SimTime t = SimTime() + Duration::Days(7); t < m.trace.end();
             t += step) {
          sink += predictor.Predict(m.trace, t, m.od_price()).avg_price;
          ++calls;
        }
      }
      if (sink < 0.0) {
        std::fprintf(stderr, "predictor sink negative\n");
      }
      return static_cast<double>(calls) / SecondsSince(t0);
    };
    rescan_pred_s = drive(false);
    incr_pred_s = drive(true);
    std::fprintf(stderr, "predictor: %.0f -> %.0f predicts/s (%.1fx)\n",
                 rescan_pred_s, incr_pred_s, incr_pred_s / rescan_pred_s);
  }

  // --- LP: cold two-phase vs warm-started solves over a slot sequence. ----
  double cold_solves_s = 0.0;
  double warm_solves_s = 0.0;
  bool lp_match = true;
  {
    const size_t k = 8;
    const int slots = quick ? 400 : 2000;
    const auto t_cold = std::chrono::steady_clock::now();
    std::vector<double> cold_obj(slots);
    for (int s = 0; s < slots; ++s) {
      cold_obj[s] = MakeSlotLp(k, s).Solve().objective;
    }
    cold_solves_s = slots / SecondsSince(t_cold);
    SimplexBasis basis;
    const auto t_warm = std::chrono::steady_clock::now();
    for (int s = 0; s < slots; ++s) {
      const auto sol = MakeSlotLp(k, s).Solve(&basis);
      if (std::abs(sol.objective - cold_obj[s]) >
          1e-6 * (1.0 + std::abs(cold_obj[s]))) {
        lp_match = false;
      }
    }
    warm_solves_s = slots / SecondsSince(t_warm);
    std::fprintf(stderr, "lp: %.0f -> %.0f solves/s (%.1fx, %s)\n",
                 cold_solves_s, warm_solves_s, warm_solves_s / cold_solves_s,
                 lp_match ? "objectives match" : "OBJECTIVE MISMATCH");
  }

  // --- Grid: serial vs parallel experiment fan-out. -----------------------
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool digest_match = false;
  size_t grid_cells = 0;
  {
    std::vector<ExperimentConfig> cells;
    for (double zipf : quick ? std::vector<double>{1.0}
                             : std::vector<double>{0.8, 1.2}) {
      for (Approach a : {Approach::kOdOnly, Approach::kOdSpotSep,
                         Approach::kPropNoBackup, Approach::kProp}) {
        ExperimentConfig cfg;
        cfg.workload = PrototypeWorkload(quick ? 1 : 2, zipf);
        cfg.approach = a;
        cells.push_back(cfg);
      }
    }
    grid_cells = cells.size();
    auto t0 = std::chrono::steady_clock::now();
    const auto serial = RunExperimentGrid(cells, {.threads = 1});
    serial_ms = SecondsSince(t0) * 1e3;
    t0 = std::chrono::steady_clock::now();
    const auto parallel = RunExperimentGrid(cells, {.threads = threads});
    parallel_ms = SecondsSince(t0) * 1e3;
    digest_match =
        DigestExperimentResults(serial) == DigestExperimentResults(parallel);
    std::fprintf(stderr,
                 "grid: %zu cells, serial %.0f ms, parallel %.0f ms on %d "
                 "threads (%.2fx, digests %s)\n",
                 grid_cells, serial_ms, parallel_ms, threads,
                 serial_ms / parallel_ms, digest_match ? "match" : "DIFFER");
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"meta\": {\"quick\": %s, \"threads\": %d, "
               "\"hardware_concurrency\": %u},\n",
               quick ? "true" : "false", threads,
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"cache\": {\"ref_put_ops_s\": %.0f, \"flat_put_ops_s\": "
               "%.0f, \"ref_get_ops_s\": %.0f, \"flat_get_ops_s\": %.0f, "
               "\"put_speedup\": %.3f, \"get_speedup\": %.3f, "
               "\"hits_match\": %s},\n",
               ref.put_ops_s, flat.put_ops_s, ref.get_ops_s, flat.get_ops_s,
               flat.put_ops_s / ref.put_ops_s, flat.get_ops_s / ref.get_ops_s,
               cache_match ? "true" : "false");
  std::fprintf(f,
               "  \"predictor\": {\"rescan_predicts_s\": %.0f, "
               "\"incremental_predicts_s\": %.0f, \"speedup\": %.3f},\n",
               rescan_pred_s, incr_pred_s, incr_pred_s / rescan_pred_s);
  std::fprintf(f,
               "  \"lp\": {\"cold_solves_s\": %.0f, \"warm_solves_s\": %.0f, "
               "\"speedup\": %.3f, \"objectives_match\": %s},\n",
               cold_solves_s, warm_solves_s, warm_solves_s / cold_solves_s,
               lp_match ? "true" : "false");
  std::fprintf(f,
               "  \"grid\": {\"cells\": %zu, \"serial_ms\": %.1f, "
               "\"parallel_ms\": %.1f, \"threads\": %d, \"speedup\": %.3f, "
               "\"digest_match\": %s}\n",
               grid_cells, serial_ms, parallel_ms, threads,
               serial_ms / parallel_ms, digest_match ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  // Equivalence failures are errors: the fast paths must be drop-in.
  return (cache_match && lp_match && digest_match) ? 0 : 1;
}
