// Online hot/cold key classification (paper §4.2 "Key partitioner").
//
// Accesses stream through a Count-Min sketch (point frequencies) and a
// Space-Saving table (enumerable heavy hitters). Periodically the partitioner
// rebuilds a Bloom filter holding the smallest set of heavy hitters that
// covers `hot_access_fraction` (default 90%) of recent accesses — the paper's
// definition of "hot" — and decays the trackers so popularity is a sliding
// notion. Classification is then a Bloom lookup, standing in for the paper's
// "h"/"c" key prefixes.

#pragma once

#include <cstdint>
#include <memory>

#include "src/routing/bloom_filter.h"
#include "src/routing/count_min_sketch.h"
#include "src/routing/heavy_hitters.h"

namespace spotcache {

/// Keys are dense integer ids ranked by popularity (key 0 is the hottest).
using KeyId = uint64_t;

class KeyPartitioner {
 public:
  struct Config {
    /// Space-Saving slots; bounds how many distinct keys can be called hot.
    size_t heavy_hitter_slots = 4096;
    double sketch_epsilon = 1e-4;
    double sketch_delta = 1e-3;
    double bloom_fp_rate = 0.01;
    /// Rebuild the hot set every this many observed accesses.
    uint64_t refresh_interval = 100'000;
    /// Hot keys are the smallest popularity prefix covering this fraction of
    /// accesses (paper footnote 3: 90%).
    double hot_access_fraction = 0.90;
  };

  KeyPartitioner() : KeyPartitioner(Config{}) {}
  explicit KeyPartitioner(const Config& config);

  /// Records an access; auto-refreshes on the configured interval.
  void Observe(KeyId key);

  /// True if the key is currently classified hot. No false "cold" for keys in
  /// the published hot set (Bloom has no false negatives).
  bool IsHot(KeyId key) const;

  /// Rebuilds the hot set immediately.
  void Refresh();

  /// Frequency estimate for a key (sketch upper bound).
  uint64_t EstimateFrequency(KeyId key) const { return sketch_.Estimate(key); }

  size_t hot_key_count() const { return hot_count_; }
  uint64_t observed() const { return observed_; }
  uint64_t refreshes() const { return refreshes_; }

 private:
  Config config_;
  CountMinSketch sketch_;
  HeavyHitters hitters_;
  std::unique_ptr<BloomFilter> hot_filter_;
  size_t hot_count_ = 0;
  uint64_t observed_ = 0;
  uint64_t since_refresh_ = 0;
  uint64_t refreshes_ = 0;
};

}  // namespace spotcache
