#include "src/obs/exporters.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/util/logging.h"

namespace spotcache {

namespace {

// Splits a canonical registry name ("spot/revocations{market=m4.L-c}") into
// its base and label pairs.
void SplitFullName(const std::string& full, std::string* base,
                   MetricLabels* labels) {
  const size_t brace = full.find('{');
  if (brace == std::string::npos) {
    *base = full;
    return;
  }
  *base = full.substr(0, brace);
  size_t pos = brace + 1;
  while (pos < full.size() && full[pos] != '}') {
    const size_t comma = full.find(',', pos);
    const size_t end =
        comma == std::string::npos ? full.size() - 1 : comma;  // '}' or ','
    const std::string pair = full.substr(pos, end - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      labels->emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
    pos = end + 1;
  }
}

std::string SanitizeMetricName(std::string_view base) {
  std::string out;
  out.reserve(base.size());
  for (const char c : base) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
               ? c
               : '_';
  }
  return out;
}

std::string PrometheusLabels(const MetricLabels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += labels[i].first;
    out += "=\"";
    for (const char c : labels[i].second) {
      // Text-format escaping: backslash, double quote, and newline.
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

std::string Num(double v) { return EventTracer::JsonNumber(v); }

void AppendLine(std::string* out, const std::string& full,
                std::string_view suffix, const std::string& value,
                const std::pair<std::string, std::string>* extra_label =
                    nullptr) {
  std::string base;
  MetricLabels labels;
  SplitFullName(full, &base, &labels);
  if (extra_label != nullptr) {
    labels.push_back(*extra_label);
  }
  *out += SanitizeMetricName(base);
  *out += suffix;
  *out += PrometheusLabels(labels);
  *out += ' ';
  *out += value;
  *out += '\n';
}

}  // namespace

std::string ToJsonl(const EventTracer& tracer) {
  std::string out;
  for (const TraceEvent& ev : tracer.events()) {
    out += "{\"t_us\":";
    out += EventTracer::JsonNumber(ev.time.micros());
    out += ",\"type\":";
    out += EventTracer::JsonString(ev.type);
    for (const auto& [key, value] : ev.fields) {
      out += ',';
      out += EventTracer::JsonString(key);
      out += ':';
      out += value;
    }
    out += "}\n";
  }
  return out;
}

std::string ToCsvTimeSeries(const MetricsRegistry& registry) {
  std::string out = "t_us,series,value\n";
  for (const auto& [name, series] : registry.series()) {
    for (const auto& point : series.points) {
      out += std::to_string(point.t_us);
      out += ',';
      out += name;
      out += ',';
      out += Num(point.value);
      out += '\n';
    }
  }
  return out;
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  const auto lock = registry.Lock();
  std::string out;
  for (const auto& [full, counter] : registry.counters()) {
    AppendLine(&out, full, "", std::to_string(counter.value()));
  }
  for (const auto& [full, gauge] : registry.gauges()) {
    // A NaN/Inf gauge would poison rate() and max() queries downstream;
    // reject the sample at the exposition boundary instead of shipping it.
    if (!std::isfinite(gauge.value())) {
      continue;
    }
    AppendLine(&out, full, "", Num(gauge.value()));
  }
  for (const auto& [full, hist] : registry.histograms()) {
    // Prometheus-convention cumulative buckets over the LogHistogram
    // geometry. Empty buckets are skipped (cumulative counts make them
    // redundant). The top bucket also holds out-of-range values, so it has
    // no finite edge: the +Inf bucket closes the series, and _count is the
    // same bucket sum, so the two agree even while a reactor records.
    uint64_t cumulative = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      const uint64_t n = hist.bucket(b);
      if (n == 0) {
        continue;
      }
      cumulative += n;
      if (b + 1 == Histogram::kBuckets) {
        break;
      }
      const std::pair<std::string, std::string> le{
          "le", Num(Histogram::BucketUpperBound(b))};
      AppendLine(&out, full, "_bucket", std::to_string(cumulative), &le);
    }
    const std::string count = std::to_string(cumulative);
    const std::pair<std::string, std::string> le_inf{"le", "+Inf"};
    AppendLine(&out, full, "_bucket", count, &le_inf);
    AppendLine(&out, full, "_sum", Num(hist.sum()));
    AppendLine(&out, full, "_count", count);
    AppendLine(&out, full, "_mean", Num(hist.mean()));
    const std::vector<double> qs = hist.Quantiles({0.5, 0.95, 0.99});
    AppendLine(&out, full, "_p50", Num(qs[0]));
    AppendLine(&out, full, "_p95", Num(qs[1]));
    AppendLine(&out, full, "_p99", Num(qs[2]));
    AppendLine(&out, full, "_max", Num(hist.max_recorded()));
  }
  return out;
}

std::string ToPrometheusText(
    std::span<const MetricsRegistry* const> registries) {
  if (registries.size() == 1) {
    return ToPrometheusText(*registries[0]);
  }
  // Keys are canonical full names already, so registering one again by its
  // full key lands on the same metric in `sum`.
  MetricsRegistry sum;
  for (const MetricsRegistry* registry : registries) {
    const auto lock = registry->Lock();
    for (const auto& [name, counter] : registry->counters()) {
      sum.GetCounter(name)->Increment(counter.value());
    }
    for (const auto& [name, gauge] : registry->gauges()) {
      sum.GetGauge(name)->Add(gauge.value());
    }
    for (const auto& [name, hist] : registry->histograms()) {
      sum.GetHistogram(name)->MergeFrom(hist);
    }
  }
  return ToPrometheusText(sum);
}

bool WriteStringToFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    SPOTCACHE_LOG(kError) << "cannot open " << path << " for writing";
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    SPOTCACHE_LOG(kError) << "short write to " << path;
    return false;
  }
  return true;
}

}  // namespace spotcache
