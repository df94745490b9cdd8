// Exporters: JSONL event stream, CSV sim-time series, and a Prometheus-style
// text snapshot. JSONL and CSV are pure functions of sim-time data and are
// byte-identical across deterministic replays; the Prometheus snapshot also
// includes wall-clock timing histograms (SPOTCACHE_TIMED), which naturally
// vary run to run.

#pragma once

#include <span>
#include <string>
#include <string_view>

#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace spotcache {

/// One JSON object per line, fields in emission order:
///   {"t_us":123,"type":"replan","lambda_hat":320000,...}
std::string ToJsonl(const EventTracer& tracer);

/// Long-format CSV over all registered series, deterministically ordered by
/// (series name, sample index): `t_us,series,value` with a header row.
std::string ToCsvTimeSeries(const MetricsRegistry& registry);

/// Prometheus text exposition. Metric names are sanitized ('/', '.', '-' →
/// '_'); labels render as {k="v"} with backslash/quote/newline escaping.
/// Non-finite gauge values are rejected (the line is skipped). Histograms
/// expose cumulative _bucket{le=...} series over the LogHistogram geometry
/// (empty buckets elided, closed by le="+Inf"), plus _sum, _count, _mean,
/// _p50, _p95, _p99, and _max.
/// Safe from any thread while the registry's owner keeps recording.
std::string ToPrometheusText(const MetricsRegistry& registry);

/// The Prometheus text of the sum of `registries`: counters and histograms
/// add, gauges sum. Safe from any thread while the registries' owners keep
/// recording: this is what a multi-reactor server's scrape, metrics dump
/// and shutdown snapshot render.
std::string ToPrometheusText(
    std::span<const MetricsRegistry* const> registries);

/// Overwrites `path` with `content`; returns false (and logs) on failure.
bool WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace spotcache
