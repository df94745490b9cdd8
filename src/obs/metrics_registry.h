// Structured metrics registry: named counters, gauges, histograms, and
// sim-time series, organized by component-style names ("controller/plan_ms",
// "spot/revocations") with optional labels ({market=us-east-1c}).
//
// Design points:
//   * Get* returns a stable pointer — components resolve their metrics once
//     (at attach time) and then update through the pointer, so hot paths pay
//     one null check + one increment, never a map lookup.
//   * Iteration order is the lexicographic full-name order (std::map), so
//     every exporter snapshot is deterministic.
//   * Histograms keep util's LogHistogram geometry (1e-6 floor, 5 % growth:
//     O(1) record, ~2.5 % relative-error quantiles) in a fixed bucket array.
//   * Series are keyed by SimTime, not wall time, so exported CSV streams are
//     bit-identical under deterministic replay.
//
// Threading: one writer, any number of readers.
//   * Every Counter, Gauge and Histogram value is a relaxed atomic updated by
//     one thread with a load and a store, never a read-modify-write. That
//     costs what a plain increment costs on x86, and lets another thread read
//     the value at any time. Two threads must not update one metric.
//   * A histogram's buckets never move, so a reader sees each bucket whole.
//     count() is the bucket sum, so the exported +Inf bucket always equals
//     _count; _sum and _max may run a sample ahead of or behind the buckets.
//   * Get*, AddSample, CounterValue and GaugeValue take the registry's mutex,
//     so the owner may register a metric lazily while another thread walks
//     the counters()/gauges()/histograms()/series() views under Lock().
//     The owner walks them without the lock. Updates through resolved
//     pointers take no lock.
//
// The multi-reactor server gives each reactor its own registry; the reactor
// that answers a scrape sums all of them (exporters.h).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/stats.h"
#include "src/util/time.h"

namespace spotcache {

/// Sorted-by-key (label, value) pairs; callers may pass them in any order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  /// For porting pre-aggregated totals (e.g. FaultCounters) onto the registry.
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { Set(value() + d); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// LogHistogram's default geometry: bucket 0 holds values <= kMinValue,
  /// bucket b holds (kMinValue * kGrowth^(b-1), kMinValue * kGrowth^b].
  static constexpr double kMinValue = 1e-6;
  static constexpr double kGrowth = 1.05;
  /// Covers kMinValue .. ~1e4; the top bucket also absorbs larger values
  /// (max_recorded() stays exact).
  static constexpr size_t kBuckets = 473;

  void Record(double v);
  /// Sum of the bucket counts.
  uint64_t count() const;
  double mean() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max_recorded() const { return max_.load(std::memory_order_relaxed); }
  double Quantile(double q) const { return log_histogram().Quantile(q); }
  /// Batched quantiles (ascending `qs`); one cumulative pass.
  std::vector<double> Quantiles(const std::vector<double>& qs) const {
    return log_histogram().Quantiles(qs);
  }

  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Inclusive upper edge of bucket `b` (the exported `le`).
  static double BucketUpperBound(size_t b);

  /// Folds another histogram's samples into this one (bucket-exact). The
  /// caller must be this histogram's writer.
  void MergeFrom(const Histogram& other);
  /// A LogHistogram with the same bucket counts, quantiles and max. Its
  /// samples sit at bucket midpoints, the highest bucket's at max, so its sum
  /// is an estimate (and values above the range move to max's bucket).
  LogHistogram log_histogram() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// An append-only (sim time, value) series for CSV export.
struct MetricSeries {
  struct Point {
    int64_t t_us = 0;
    double value = 0.0;
  };
  std::vector<Point> points;
};

class MetricsRegistry {
 public:
  /// Canonical full name: `name` + "{k=v,...}" with labels sorted by key
  /// (empty labels add nothing). Two Get* calls with the same canonical name
  /// return the same object.
  static std::string FullName(std::string_view name, MetricLabels labels);

  Counter* GetCounter(std::string_view name, MetricLabels labels = {});
  Gauge* GetGauge(std::string_view name, MetricLabels labels = {});
  Histogram* GetHistogram(std::string_view name, MetricLabels labels = {});

  /// Appends a sample to the named series (created on first use).
  void AddSample(std::string_view name, SimTime t, double value,
                 MetricLabels labels = {});

  /// Value of a counter, or 0 if it was never registered.
  int64_t CounterValue(std::string_view name, MetricLabels labels = {}) const;
  /// Value of a gauge, or 0.0 if it was never registered.
  double GaugeValue(std::string_view name, MetricLabels labels = {}) const;

  /// Held by a thread other than the owner while it walks the views below.
  std::unique_lock<std::mutex> Lock() const {
    return std::unique_lock<std::mutex>(mu_);
  }
  /// Deterministically ordered views.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, MetricSeries>& series() const { return series_; }

 private:
  mutable std::mutex mu_;  // guards the maps' structure, not the values
  // std::map: stable addresses across inserts (Get* pointers never dangle).
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, MetricSeries> series_;
};

}  // namespace spotcache
