// Zipfian popularity: the YCSB-style sampler and the analytic popularity CDF
// F(.) the optimizer consumes (paper §4.1).
//
// Keys are identified by popularity rank (0 = hottest), which keeps the
// analytic machinery (hot fractions, F(alpha)) and the request stream
// consistent by construction. A scramble option is available when rank
// locality must not correlate with key-space locality.

#pragma once

#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace spotcache {

/// Generalized harmonic number H_{n,theta} = sum_{i=1..n} i^-theta, computed
/// exactly up to a bound and by integral approximation beyond it (accurate to
/// ~1e-6 relative for the n (~1e6..1e9) and theta (0.5..2) we use).
double GeneralizedHarmonic(double n, double theta);

/// Analytic view of a Zipf(theta) distribution over n ranked keys.
class ZipfPopularity {
 public:
  ZipfPopularity(uint64_t num_keys, double theta);

  uint64_t num_keys() const { return num_keys_; }
  double theta() const { return theta_; }

  /// Probability mass of the key at (0-based) rank r.
  double MassAt(uint64_t rank) const;

  /// F(x): fraction of accesses going to the most popular `x` fraction of
  /// keys, x in [0, 1]. Monotone, F(0)=0, F(1)=1.
  double AccessFraction(double key_fraction) const;

  /// Smallest key fraction whose access share reaches `coverage` — the
  /// paper's hot-set rule with coverage 0.9. Binary search on F.
  double KeyFractionForCoverage(double coverage) const;

 private:
  /// Cumulative H_{k,theta} at geometrically spaced ranks; built once so
  /// AccessFraction is O(log) per query instead of an O(n) summation.
  double PartialHarmonic(double k) const;

  uint64_t num_keys_;
  double theta_;
  double total_;  // H_{n,theta}
  std::vector<double> grid_ranks_;
  std::vector<double> grid_sums_;
};

/// YCSB-style Zipfian sampler (Gray et al. rejection-free method).
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t num_keys, double theta);

  /// Samples a 0-based rank; rank 0 is most popular.
  uint64_t Sample(Rng& rng) const;

  uint64_t num_keys() const { return n_; }

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double threshold_;  // 1 + 0.5^theta: u * zetan below it samples rank 1
};

}  // namespace spotcache
