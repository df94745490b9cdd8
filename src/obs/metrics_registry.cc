#include "src/obs/metrics_registry.h"

#include <algorithm>
#include <cmath>

namespace spotcache {

namespace {

const double kLogGrowth = std::log(Histogram::kGrowth);
// The exported `le` edges come from LogHistogram's own geometry. Building it
// calls into libm during static initialization; without that early call a
// server's first scrape mapped ~48 KB more of libm (peak RSS, via the
// kernel's fault-around).
const LogHistogram kGeometry(Histogram::kMinValue, Histogram::kGrowth);

size_t BucketFor(double value) {
  if (value <= Histogram::kMinValue) {
    return 0;
  }
  const double steps = std::log(value / Histogram::kMinValue) / kLogGrowth;
  return steps >= static_cast<double>(Histogram::kBuckets - 2)
             ? Histogram::kBuckets - 1
             : 1 + static_cast<size_t>(steps);
}

void Bump(std::atomic<uint64_t>& bucket, uint64_t n) {
  bucket.store(bucket.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

}  // namespace

void Histogram::Record(double v) {
  if (!(v >= 0.0)) {
    v = 0.0;
  }
  Bump(buckets_[BucketFor(v)], 1);
  sum_.store(sum() + v, std::memory_order_relaxed);
  if (v > max_recorded()) {
    max_.store(v, std::memory_order_relaxed);
  }
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    n += bucket(b);
  }
  return n;
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::BucketUpperBound(size_t b) {
  return kGeometry.BucketUpperBound(b);
}

void Histogram::MergeFrom(const Histogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) {
    if (const uint64_t n = other.bucket(b); n != 0) {
      Bump(buckets_[b], n);
    }
  }
  sum_.store(sum() + other.sum(), std::memory_order_relaxed);
  if (other.max_recorded() > max_recorded()) {
    max_.store(other.max_recorded(), std::memory_order_relaxed);
  }
}

LogHistogram Histogram::log_histogram() const {
  // Samples sit at their bucket's geometric midpoint, except the highest
  // bucket's, which sit at max: that keeps every bucket count and
  // LogHistogram's max-clamped quantiles.
  LogHistogram out(kMinValue, kGrowth);
  size_t top = kBuckets;
  while (top > 0 && bucket(top - 1) == 0) {
    --top;
  }
  double mid = kMinValue / 2.0;
  for (size_t b = 0; b + 1 < top; ++b) {
    out.RecordN(mid, bucket(b));
    mid = b == 0 ? kMinValue * std::sqrt(kGrowth) : mid * kGrowth;
  }
  if (top > 0) {
    out.RecordN(max_recorded(), bucket(top - 1));
  }
  return out;
}

std::string MetricsRegistry::FullName(std::string_view name,
                                      MetricLabels labels) {
  std::string full(name);
  if (labels.empty()) {
    return full;
  }
  std::sort(labels.begin(), labels.end());
  full += '{';
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      full += ',';
    }
    full += labels[i].first;
    full += '=';
    full += labels[i].second;
  }
  full += '}';
  return full;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     MetricLabels labels) {
  std::string full = FullName(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[std::move(full)];
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, MetricLabels labels) {
  std::string full = FullName(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_[std::move(full)];
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         MetricLabels labels) {
  std::string full = FullName(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  return &histograms_[std::move(full)];
}

void MetricsRegistry::AddSample(std::string_view name, SimTime t, double value,
                                MetricLabels labels) {
  std::string full = FullName(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  series_[std::move(full)].points.push_back({t.micros(), value});
}

int64_t MetricsRegistry::CounterValue(std::string_view name,
                                      MetricLabels labels) const {
  const std::string full = FullName(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(full);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::GaugeValue(std::string_view name,
                                   MetricLabels labels) const {
  const std::string full = FullName(name, std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(full);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

}  // namespace spotcache
