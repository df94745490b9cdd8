// latency_explain: attribute client-observed tail latency to server phases.
//
//   latency_explain --client=loadgen_trace.jsonl --server=spans.jsonl [--json]
//
// Joins two JSONL streams produced by one load-test run:
//
//   * --client: the load generator's trace (spotcache_loadgen --trace=F) —
//     per-segment client-observed latency quantiles, measured open-loop from
//     each op's *scheduled* send time, so client p99 includes send-queue
//     (coordinated-omission-free) delay plus network plus server time.
//   * --server: the server's span stream — `request_span` JSONL lines from
//     either the flight-recorder dump (spotcache_server --spans=F, SIGUSR1)
//     or a full event trace (--trace=F). Span-sampled records carry phase
//     stamps: queue (batch recv -> parse), parse, store (item ops +
//     response assembly), write (batch flush).
//
// The tool aligns the two timelines by anchoring the *end* of the span
// stream to the end of the client run (preload traffic precedes the timed
// run, so end-alignment is the robust choice), buckets spans into the
// client's segments, and reports per segment:
//
//   client p50/p99  |  server-span p50/p99  |  tail phase breakdown
//
// plus `unattributed p99` = client p99 - server p99: time the request spent
// outside the server (network + client-side queueing). Under a flash crowd
// the interesting split is exactly this — did p99 blow up because the server
// slowed down (phase breakdown says where), or because the open-loop queue
// backed up in front of a healthy server (unattributed dominates)?
//
// Tail phase breakdown: among a segment's full spans, the mean of each phase
// over the slowest 10% (by total), i.e. where the in-server tail spends its
// time. Sampled spans are a uniform subsample, so these means estimate the
// true tail composition.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSONL field extraction. The inputs are machine-generated with
// unique key names per line (even across nesting levels), so a flat
// key-scan is exact; values are numbers, strings, or booleans.

std::optional<double> GetNum(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') {
    ++pos;
  }
  char* end = nullptr;
  const double v = std::strtod(line.c_str() + pos, &end);
  if (end == line.c_str() + pos) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::string> GetStr(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') {
    ++pos;
  }
  if (pos >= line.size() || line[pos] != '"') {
    return std::nullopt;
  }
  const size_t close = line.find('"', pos + 1);
  if (close == std::string::npos) {
    return std::nullopt;
  }
  return line.substr(pos + 1, close - pos - 1);
}

bool HasType(const std::string& line, const char* type) {
  const auto t = GetStr(line, "type");
  return t.has_value() && *t == type;
}

// ---------------------------------------------------------------------------

struct Span {
  double t_us = 0;
  double queue_us = 0, parse_us = 0, store_us = 0, write_us = 0;
  double total_us = 0;
  bool full = false;
};

struct Segment {
  std::string label;
  double duration_s = 0;
  double achieved_rps = 0;
  double client_p50_us = 0;
  double client_p99_us = 0;
  double client_count = 0;
};

struct Phases {
  double queue = 0, parse = 0, store = 0, write = 0;
};

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

int Usage() {
  std::fprintf(stderr,
               "usage: latency_explain --client=loadgen_trace.jsonl "
               "--server=spans.jsonl [--json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string client_path;
  std::string server_path;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--client=", 0) == 0) {
      client_path = arg.substr(9);
    } else if (arg.rfind("--server=", 0) == 0) {
      server_path = arg.substr(9);
    } else if (arg == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }
  if (client_path.empty() || server_path.empty()) {
    return Usage();
  }

  // --- Client side: segments + run totals. -------------------------------
  std::vector<Segment> segments;
  double run_p99_us = 0;
  double run_p50_us = 0;
  {
    std::ifstream in(client_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", client_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (HasType(line, "segment")) {
        Segment seg;
        seg.label = GetStr(line, "label").value_or("?");
        seg.duration_s = GetNum(line, "duration_s").value_or(0);
        seg.achieved_rps = GetNum(line, "achieved_rps").value_or(0);
        seg.client_p50_us = GetNum(line, "p50_us").value_or(0);
        seg.client_p99_us = GetNum(line, "p99_us").value_or(0);
        seg.client_count = GetNum(line, "count").value_or(0);
        segments.push_back(seg);
      } else if (HasType(line, "run_summary")) {
        run_p50_us = GetNum(line, "p50_us").value_or(0);
        run_p99_us = GetNum(line, "p99_us").value_or(0);
      }
    }
  }
  if (segments.empty()) {
    std::fprintf(stderr, "no segment records in %s (need a loadgen trace)\n",
                 client_path.c_str());
    return 1;
  }

  // --- Server side: spans. -----------------------------------------------
  std::vector<Span> spans;
  {
    std::ifstream in(server_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", server_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!HasType(line, "request_span")) {
        continue;
      }
      Span s;
      s.t_us = GetNum(line, "t_us").value_or(0);
      s.queue_us = GetNum(line, "queue_us").value_or(0);
      s.parse_us = GetNum(line, "parse_us").value_or(0);
      s.store_us = GetNum(line, "store_us").value_or(0);
      s.write_us = GetNum(line, "write_us").value_or(0);
      s.total_us = GetNum(line, "total_us").value_or(0);
      const std::string full = line.find("\"full_span\":true") !=
                                       std::string::npos
                                   ? "y"
                                   : "";
      s.full = !full.empty();
      spans.push_back(s);
    }
  }
  if (spans.empty()) {
    std::fprintf(stderr, "no request_span records in %s\n",
                 server_path.c_str());
    return 1;
  }

  // --- Timeline alignment: anchor span-stream end to client run end. -----
  double run_s = 0;
  for (const Segment& seg : segments) {
    run_s += seg.duration_s;
  }
  double t_max = 0;
  for (const Span& s : spans) {
    t_max = std::max(t_max, s.t_us);
  }
  const double run_start_us = t_max - run_s * 1e6;

  // --- Per-segment join. -------------------------------------------------
  std::string out_json = "{\"segments\": [";
  if (!json) {
    std::printf(
        "%-14s %10s %10s | %8s %10s %10s | %s\n", "segment", "client p50",
        "client p99", "spans", "server p50", "server p99",
        "unattributed p99 (network + client queueing)");
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    const Segment& seg = segments[i];
    double seg_start = run_start_us;
    for (size_t j = 0; j < i; ++j) {
      seg_start += segments[j].duration_s * 1e6;
    }
    const double seg_end = seg_start + seg.duration_s * 1e6;

    std::vector<double> totals;
    std::vector<const Span*> full_spans;
    for (const Span& s : spans) {
      if (s.t_us < seg_start || s.t_us >= seg_end) {
        continue;
      }
      totals.push_back(s.total_us);
      if (s.full) {
        full_spans.push_back(&s);
      }
    }
    const double server_p50 = Quantile(totals, 0.5);
    const double server_p99 = Quantile(totals, 0.99);
    const double unattributed = seg.client_p99_us - server_p99;

    // Tail composition: mean phases over the slowest 10% of full spans.
    Phases tail;
    size_t tail_n = 0;
    if (!full_spans.empty()) {
      std::sort(full_spans.begin(), full_spans.end(),
                [](const Span* a, const Span* b) {
                  return a->total_us > b->total_us;
                });
      tail_n = std::max<size_t>(1, full_spans.size() / 10);
      for (size_t j = 0; j < tail_n; ++j) {
        tail.queue += full_spans[j]->queue_us;
        tail.parse += full_spans[j]->parse_us;
        tail.store += full_spans[j]->store_us;
        tail.write += full_spans[j]->write_us;
      }
      tail.queue /= static_cast<double>(tail_n);
      tail.parse /= static_cast<double>(tail_n);
      tail.store /= static_cast<double>(tail_n);
      tail.write /= static_cast<double>(tail_n);
    }

    if (json) {
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"label\": \"%s\", \"client_p50_us\": %.1f, "
          "\"client_p99_us\": %.1f, \"spans\": %zu, \"server_p50_us\": %.1f, "
          "\"server_p99_us\": %.1f, \"unattributed_p99_us\": %.1f, "
          "\"tail_phases_us\": {\"queue\": %.1f, \"parse\": %.1f, "
          "\"store\": %.1f, \"write\": %.1f}}",
          i > 0 ? ", " : "", seg.label.c_str(), seg.client_p50_us,
          seg.client_p99_us, totals.size(), server_p50, server_p99,
          unattributed, tail.queue, tail.parse, tail.store, tail.write);
      out_json += buf;
    } else {
      std::printf("%-14s %9.0fus %9.0fus | %8zu %9.0fus %9.0fus | %9.0fus\n",
                  seg.label.c_str(), seg.client_p50_us, seg.client_p99_us,
                  totals.size(), server_p50, server_p99, unattributed);
      if (tail_n > 0) {
        std::printf(
            "%-14s   in-server tail (slowest %zu spans): queue %.0fus, "
            "parse %.0fus, store %.0fus, write %.0fus\n", "", tail_n,
            tail.queue, tail.parse, tail.store, tail.write);
      }
    }
  }

  // --- Run-level summary. ------------------------------------------------
  std::vector<double> all_totals;
  all_totals.reserve(spans.size());
  for (const Span& s : spans) {
    all_totals.push_back(s.total_us);
  }
  const double server_run_p50 = Quantile(all_totals, 0.5);
  const double server_run_p99 = Quantile(all_totals, 0.99);

  if (json) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "], \"run\": {\"client_p50_us\": %.1f, \"client_p99_us\": "
                  "%.1f, \"server_p50_us\": %.1f, \"server_p99_us\": %.1f, "
                  "\"spans\": %zu}}",
                  run_p50_us, run_p99_us, server_run_p50, server_run_p99,
                  spans.size());
    out_json += buf;
    std::printf("%s\n", out_json.c_str());
  } else {
    std::printf(
        "run: client p50 %.0fus / p99 %.0fus; server (%zu spans) p50 %.0fus "
        "/ p99 %.0fus\n",
        run_p50_us, run_p99_us, spans.size(), server_run_p50, server_run_p99);
  }
  return 0;
}
