#include "src/workload/zipf.h"

#include <algorithm>
#include <cmath>

namespace spotcache {

namespace {
// Exact-summation bound; beyond it the midpoint integral approximation of
// sum x^-theta is accurate to well under 1e-6 relative.
constexpr uint64_t kExactTerms = 1'000'000;

double PowIntegral(double a, double b, double theta) {
  // Integral of x^-theta over [a, b].
  if (std::fabs(theta - 1.0) < 1e-12) {
    return std::log(b / a);
  }
  return (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) / (1.0 - theta);
}
}  // namespace

double GeneralizedHarmonic(double n, double theta) {
  if (n < 1.0) {
    return n;  // continuous extension below a single key
  }
  const uint64_t m = static_cast<uint64_t>(
      std::min(n, static_cast<double>(kExactTerms)));
  double sum = 0.0;
  for (uint64_t i = 1; i <= m; ++i) {
    sum += std::pow(static_cast<double>(i), -theta);
  }
  if (n > static_cast<double>(m)) {
    // Midpoint rule: sum_{i=m+1..n} i^-theta ~ integral over [m+.5, n+.5].
    sum += PowIntegral(static_cast<double>(m) + 0.5, n + 0.5, theta);
  }
  return sum;
}

ZipfPopularity::ZipfPopularity(uint64_t num_keys, double theta)
    : num_keys_(std::max<uint64_t>(num_keys, 1)), theta_(theta) {
  // One exact pass over the head of the distribution, recording cumulative
  // sums at geometrically spaced ranks; queries interpolate from the grid
  // with a local integral correction.
  const uint64_t exact = std::min<uint64_t>(num_keys_, kExactTerms);
  double next_grid = 1.0;
  double sum = 0.0;
  for (uint64_t i = 1; i <= exact; ++i) {
    sum += std::pow(static_cast<double>(i), -theta_);
    if (static_cast<double>(i) >= next_grid || i == exact) {
      grid_ranks_.push_back(static_cast<double>(i));
      grid_sums_.push_back(sum);
      next_grid = std::max(next_grid * 1.02, static_cast<double>(i) + 1.0);
    }
  }
  total_ = PartialHarmonic(static_cast<double>(num_keys_));
}

double ZipfPopularity::PartialHarmonic(double k) const {
  if (k < 1.0) {
    return k;  // continuous extension below one key
  }
  // Largest grid rank <= k.
  const auto it = std::upper_bound(grid_ranks_.begin(), grid_ranks_.end(), k);
  const size_t idx = static_cast<size_t>(it - grid_ranks_.begin()) - 1;
  const double base_rank = grid_ranks_[idx];
  double sum = grid_sums_[idx];
  if (k > base_rank) {
    sum += PowIntegral(base_rank + 0.5, k + 0.5, theta_);
  }
  return sum;
}

double ZipfPopularity::MassAt(uint64_t rank) const {
  if (rank >= num_keys_) {
    return 0.0;
  }
  return std::pow(static_cast<double>(rank + 1), -theta_) / total_;
}

double ZipfPopularity::AccessFraction(double key_fraction) const {
  key_fraction = std::clamp(key_fraction, 0.0, 1.0);
  const double k = key_fraction * static_cast<double>(num_keys_);
  if (k <= 0.0) {
    return 0.0;
  }
  if (k < 1.0) {
    // Sub-single-key: linear share of the top key's mass.
    return k * MassAt(0);
  }
  return std::min(1.0, PartialHarmonic(k) / total_);
}

double ZipfPopularity::KeyFractionForCoverage(double coverage) const {
  coverage = std::clamp(coverage, 0.0, 1.0);
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (AccessFraction(mid) < coverage) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

ZipfianGenerator::ZipfianGenerator(uint64_t num_keys, double theta)
    : n_(std::max<uint64_t>(num_keys, 1)), theta_(theta) {
  // The closed-form sampler breaks down at theta == 1; nudge.
  if (std::fabs(theta_ - 1.0) < 1e-6) {
    theta_ = 1.0 + (theta_ >= 1.0 ? 1e-6 : -1e-6);
  }
  zetan_ = GeneralizedHarmonic(static_cast<double>(n_), theta_);
  const double zeta2 = GeneralizedHarmonic(2.0, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
  threshold_ = 1.0 + std::pow(0.5, theta_);
}

uint64_t ZipfianGenerator::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < threshold_) {
    return 1;
  }
  const double r = static_cast<double>(n_) *
                   std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t rank = static_cast<uint64_t>(r);
  if (rank >= n_) {
    rank = n_ - 1;
  }
  return rank;
}

}  // namespace spotcache
