// Key popularity sampling for the open-loop load generator.
//
// KeySampler draws popularity ranks from the repo's ZipfianGenerator (Jim
// Gray et al.'s closed-form sampler: one uniform draw, two comparisons, one
// pow() — O(1) per sample with no rejection loop) and adds the two
// transformations the traffic engine needs:
//
//   * scramble: decorrelates popularity rank from key-space locality by
//     hashing the rank into [0, n) (SplitMix64 scatter, YCSB-style; the map
//     is not bijective — rare collisions merge key masses, which is fine for
//     load generation and keeps the scatter O(1) and stateless);
//   * hot-key shift: rotates ranks by an offset before scrambling, so a
//     scripted phase can move the hot set to a disjoint region of the key
//     space mid-run (popularity-churn scenarios).
//
// Pre-generated key files (a raw little-endian uint32 rank stream) let a run
// replay the exact key sequence of a previous run — or share one sequence
// across processes — independent of sampler implementation details.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/workload/zipf.h"

namespace spotcache::loadgen {

class KeySampler {
 public:
  struct Config {
    uint64_t num_keys = 10'000;
    double theta = 0.99;
    bool scramble = false;
  };

  explicit KeySampler(const Config& config);

  /// Samples a popularity rank (pre-shift, pre-scramble).
  uint64_t SampleRank(Rng& rng) const;

  /// Maps a rank to the key id actually requested: rotate by `hot_shift`
  /// (mod n), then scramble if configured.
  uint64_t KeyFor(uint64_t rank, uint64_t hot_shift) const;

  uint64_t num_keys() const { return config_.num_keys; }
  const Config& config() const { return config_; }

 private:
  Config config_;
  ZipfianGenerator zipf_;
};

/// Writes `ranks` as a raw little-endian uint32 stream. Returns false on I/O
/// failure.
bool WriteKeyFile(const std::string& path, const std::vector<uint32_t>& ranks);

/// Loads a key file written by WriteKeyFile; nullopt on I/O failure or a
/// size that is not a multiple of 4.
std::optional<std::vector<uint32_t>> LoadKeyFile(const std::string& path);

/// Draws `count` ranks from `sampler` (deterministic in `rng`).
std::vector<uint32_t> GenerateRanks(const KeySampler& sampler, size_t count,
                                    Rng& rng);

}  // namespace spotcache::loadgen
