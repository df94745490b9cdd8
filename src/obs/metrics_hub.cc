#include "src/obs/metrics_hub.h"

#include "src/obs/exporters.h"

namespace spotcache {

MetricsHub::MetricsHub(size_t shards) : snapshots_(shards) {}

void MetricsHub::Publish(size_t slot, const MetricsRegistry& registry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshots_[slot] = registry;
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

MetricsRegistry MetricsHub::Aggregate() const {
  MetricsRegistry agg;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricsRegistry& snap : snapshots_) {
      // Snapshot keys are already canonical full names (labels folded in by
      // FullName at registration time), so re-registering by the full key
      // lands on the same metric.
      for (const auto& [name, counter] : snap.counters()) {
        agg.GetCounter(name)->Increment(counter.value());
      }
      for (const auto& [name, gauge] : snap.gauges()) {
        agg.GetGauge(name)->Add(gauge.value());
      }
      for (const auto& [name, hist] : snap.histograms()) {
        agg.GetHistogram(name)->MergeFrom(hist);
      }
    }
  }
  agg.GetGauge("obs/flush_epoch")->Set(static_cast<double>(epoch()));
  agg.GetGauge("obs/shards")->Set(static_cast<double>(snapshots_.size()));
  return agg;
}

std::string MetricsHub::RenderPrometheus() const {
  return ToPrometheusText(Aggregate());
}

}  // namespace spotcache
