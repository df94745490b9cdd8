#include "src/loadgen/engine.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <string_view>

#include "src/net/client.h"
#include "src/net/reply_reader.h"

namespace spotcache::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

void AppendUint(std::string& out, uint64_t v) {
  char buf[20];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out.append(buf, ptr);
}

/// Appends "set <prefix><key> 0 0 <len>\r\n<value>\r\n".
void AppendSet(std::string& out, std::string_view prefix, uint64_t key,
               std::string_view value) {
  out += "set ";
  out += prefix;
  AppendUint(out, key);
  out += " 0 0 ";
  AppendUint(out, value.size());
  out += "\r\n";
  out += value;
  out += "\r\n";
}

struct Inflight {
  int64_t scheduled_us = 0;
  uint8_t segment = 0;
  bool is_get = false;
  uint64_t key = 0;  // numeric key id, for read-through repair sets
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  net::ReplyReader reader;
  std::deque<Inflight> inflight;
  std::vector<LogHistogram> hists;  // one per segment
  bool failed = false;
};

/// Flushes as much buffered output as the socket accepts. False = dead peer.
bool FlushConn(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    return false;
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  } else if (c.out_pos > (1u << 20)) {
    c.out.erase(0, c.out_pos);
    c.out_pos = 0;
  }
  return true;
}

/// Clamped [start, end) intervals of each phase within the run window.
std::vector<std::pair<double, double>> PhaseIntervals(
    const ScheduleConfig& sc) {
  std::vector<std::pair<double, double>> out;
  for (const Phase& p : sc.phases) {
    const double lo = std::clamp(p.start_s, 0.0, sc.duration_s);
    const double hi = std::clamp(p.start_s + p.duration_s, 0.0, sc.duration_s);
    out.emplace_back(lo, std::max(hi, lo));
  }
  return out;
}

/// Segment durations: [0] = baseline (run minus the union of phase windows),
/// [1 + i] = phase i. Phases are expected to be non-overlapping; in an
/// overlap the innermost phase wins attribution, so overlapping configs
/// inflate the outer phase's offered denominator.
std::vector<double> SegmentDurations(const ScheduleConfig& sc) {
  auto intervals = PhaseIntervals(sc);
  std::vector<double> durations(1 + intervals.size(), 0.0);
  for (size_t i = 0; i < intervals.size(); ++i) {
    durations[1 + i] = intervals[i].second - intervals[i].first;
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = 0.0;
  for (const auto& [lo, hi] : intervals) {
    const double a = std::max(lo, cursor);
    if (hi > a) {
      covered += hi - a;
      cursor = hi;
    }
  }
  durations[0] = std::max(sc.duration_s - covered, 0.0);
  return durations;
}

}  // namespace

bool Prefill(const std::string& host, uint16_t port,
             std::string_view key_prefix, uint64_t n, std::string_view value,
             int timeout_ms) {
  net::NetClient client;
  if (!client.Connect(host, port, timeout_ms)) {
    return false;
  }
  constexpr uint64_t kBatch = 256;
  std::string batch;
  for (uint64_t base = 0; base < n; base += kBatch) {
    const uint64_t end = std::min(base + kBatch, n);
    batch.clear();
    for (uint64_t k = base; k < end; ++k) {
      AppendSet(batch, key_prefix, k, value);
    }
    if (!client.Pipeline(batch, net::ReplyReader::Expect::kLine, end - base)) {
      return false;
    }
  }
  return true;
}

LoadGenResult RunOpenLoop(const EngineConfig& config) {
  LoadGenResult result;
  const ScheduleConfig& sc = config.stream.schedule;
  const size_t num_segments = 1 + sc.phases.size();
  const auto seg_durations = SegmentDurations(sc);

  const uint32_t max_value = std::max(config.stream.mix.value_bytes,
                                      config.stream.mix.value_bytes_max);
  const std::string value_buf(std::max<uint32_t>(max_value, 1), 'v');

  const std::string_view value(value_buf.data(), config.stream.mix.value_bytes);
  if (config.prefill &&
      !Prefill(config.host, config.port, config.key_prefix,
               config.stream.keys.num_keys, value, config.connect_timeout_ms)) {
    result.error = "prefill failed (connect or store error)";
    return result;
  }

  // --- Connect the fleet, probing shard placement (unmeasured). ---------
  // One `stats spotcache` round trip per connection tells us which reactor
  // shard the kernel's SO_REUSEPORT hash (or the dispatcher) assigned it to,
  // so the report can show whether offered load actually spread across
  // shards. Runs before t0 so it never pollutes the latency window.
  std::vector<Conn> conns(static_cast<size_t>(std::max(config.connections, 1)));
  for (Conn& c : conns) {
    net::NetClient client;
    if (client.Connect(config.host, config.port, config.connect_timeout_ms) &&
        config.probe_shards) {
      const auto stats = client.Stats("spotcache");
      long shard = -1;
      if (stats.has_value()) {
        const auto stat = [&stats](const char* name) -> long {
          const auto it = stats->find(name);
          return it == stats->end() ? -1 : std::atol(it->second.c_str());
        };
        shard = std::max(stat("spotcache_shard"), 0L);
        const long count = stat("spotcache_shard_count");
        if (count > 0) {
          result.server_shards = std::max<uint32_t>(
              result.server_shards, static_cast<uint32_t>(count));
        }
      } else {
        // A failed probe costs its socket (a late or corrupt reply would
        // desync the run), never the run: dial once more, unprobed.
        net::ReconnectPolicy once;
        once.max_attempts = 1;
        client.Reconnect(once);
      }
      result.conn_shards.push_back(static_cast<int>(shard));
    }
    c.fd = client.ReleaseFd();
    if (c.fd < 0 ||
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK) != 0) {
      for (Conn& cc : conns) {
        if (cc.fd >= 0) {
          ::close(cc.fd);
        }
      }
      result.error = "connect failed";
      return result;
    }
    c.hists.assign(num_segments, MakeLatencyHistogram());
  }
  if (config.probe_shards) {
    result.shard_conn_counts.assign(result.server_shards, 0);
    for (const int shard : result.conn_shards) {
      if (shard >= 0 &&
          static_cast<size_t>(shard) < result.shard_conn_counts.size()) {
        ++result.shard_conn_counts[static_cast<size_t>(shard)];
      }
    }
  }

  OpGenerator gen(config.stream);
  std::vector<SegmentStats> segs(num_segments);
  std::vector<uint64_t> per_second;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t get_misses = 0;
  uint64_t abandoned = 0;
  size_t live_conns = conns.size();
  uint64_t issued = 0;

  const auto t0 = Clock::now();
  auto now_us = [&t0]() {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 t0)
        .count();
  };

  auto fail_conn = [&](Conn& c) {
    if (c.failed) {
      return;
    }
    c.failed = true;
    abandoned += c.inflight.size();
    c.inflight.clear();
    ::close(c.fd);
    c.fd = -1;
    --live_conns;
    ++result.failed_conns;
  };

  // Completion sink shared by all connections; `sink_conn` points at the
  // connection currently being fed.
  Conn* sink_conn = nullptr;
  int64_t sink_now_us = 0;
  std::vector<LoadGenWindow> windows;
  auto window_at = [&](int64_t at_us) -> LoadGenWindow& {
    const size_t w = static_cast<size_t>(at_us / config.window_us);
    if (w >= windows.size()) {
      const size_t old = windows.size();
      windows.resize(w + 1);
      for (size_t i = old; i < windows.size(); ++i) {
        windows[i].start_us = static_cast<int64_t>(i) * config.window_us;
      }
    }
    return windows[w];
  };
  auto sink = [&](net::ReplyReader::Status status) {
    Conn& c = *sink_conn;
    const Inflight fl = c.inflight.front();
    c.inflight.pop_front();
    SegmentStats& seg = segs[fl.segment];
    ++seg.completed;
    ++completed;
    const size_t second = static_cast<size_t>(sink_now_us / 1'000'000);
    if (second >= per_second.size()) {
      per_second.resize(second + 1, 0);
    }
    ++per_second[second];
    if (status == net::ReplyReader::Status::kError) {
      ++seg.errors;
      ++errors;
      if (config.window_us > 0) {
        ++window_at(sink_now_us).errors;
      }
      return;  // error replies do not contribute latency samples
    }
    if (fl.is_get && status == net::ReplyReader::Status::kMiss) {
      ++seg.get_misses;
      ++get_misses;
      if (config.read_through) {
        // Cache-aside repair: refill the missed key right here, pipelined on
        // the same connection. The set's latency clock starts now — it is a
        // new op, not part of the missed get.
        AppendSet(c.out, config.key_prefix, fl.key, value);
        c.reader.Push(net::ReplyReader::Expect::kLine);
        c.inflight.push_back({sink_now_us, fl.segment, false, fl.key});
        ++seg.scheduled;
        ++result.scheduled;
      }
    }
    if (config.window_us > 0) {
      LoadGenWindow& w = window_at(sink_now_us);
      if (fl.is_get) {
        ++w.gets;
        if (status == net::ReplyReader::Status::kMiss) {
          ++w.get_misses;
        } else {
          ++w.get_hits;
        }
      } else {
        ++w.sets;
      }
    }
    const double latency_s =
        static_cast<double>(sink_now_us - fl.scheduled_us) * 1e-6;
    c.hists[fl.segment].Record(latency_s);
  };

  std::optional<Op> next = gen.Next();
  const int64_t schedule_end_us =
      static_cast<int64_t>(sc.duration_s * 1e6);
  int64_t drain_deadline_us = -1;
  std::vector<pollfd> pfds(conns.size());
  char rbuf[64 * 1024];

  for (;;) {
    const int64_t now = now_us();

    // Release every op whose scheduled time has arrived (open loop).
    while (next.has_value() && next->send_us <= now && live_conns > 0) {
      // Round-robin over live connections.
      Conn* c = nullptr;
      for (size_t probe = 0; probe < conns.size(); ++probe) {
        Conn& cand = conns[(issued + probe) % conns.size()];
        if (!cand.failed) {
          c = &cand;
          break;
        }
      }
      ++issued;
      const Op& op = *next;
      const uint8_t seg_idx = static_cast<uint8_t>(op.phase + 1);
      ++segs[seg_idx].scheduled;
      ++result.scheduled;
      if (op.kind == OpKind::kGet) {
        c->out += "get ";
        c->out += config.key_prefix;
        AppendUint(c->out, op.key);
        c->out += "\r\n";
        c->reader.Push(net::ReplyReader::Expect::kRetrieval);
      } else {
        AppendSet(c->out, config.key_prefix, op.key,
                  std::string_view(value_buf.data(), op.value_len));
        c->reader.Push(net::ReplyReader::Expect::kLine);
      }
      c->inflight.push_back(
          {op.send_us, seg_idx, op.kind == OpKind::kGet, op.key});
      next = gen.Next();
    }

    // Push buffered bytes out.
    size_t inflight_total = 0;
    for (Conn& c : conns) {
      if (c.failed) {
        continue;
      }
      if (!c.out.empty() && !FlushConn(c)) {
        fail_conn(c);
        continue;
      }
      inflight_total += c.inflight.size();
    }

    if (live_conns == 0) {
      result.error = "all connections failed";
      break;
    }
    if (!next.has_value()) {
      if (drain_deadline_us < 0) {
        drain_deadline_us = std::max(now, schedule_end_us) +
                            static_cast<int64_t>(config.drain_timeout_s * 1e6);
      }
      if (inflight_total == 0 || now >= drain_deadline_us) {
        abandoned += inflight_total;
        break;
      }
    }

    // Wait for the next scheduled op or socket readiness, whichever first.
    int timeout_ms = 10;
    if (next.has_value()) {
      const int64_t wait_us = next->send_us - now;
      timeout_ms = static_cast<int>(std::clamp<int64_t>(wait_us / 1000, 0, 10));
    }
    size_t npfd = 0;
    for (Conn& c : conns) {
      if (c.failed) {
        continue;
      }
      pfds[npfd].fd = c.fd;
      pfds[npfd].events =
          static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      pfds[npfd].revents = 0;
      ++npfd;
    }
    const int ready = ::poll(pfds.data(), npfd, timeout_ms);
    if (ready < 0 && errno != EINTR) {
      result.error = "poll failed";
      break;
    }

    // Drain readable sockets through the reply readers.
    size_t pi = 0;
    for (Conn& c : conns) {
      if (c.failed) {
        continue;
      }
      const short re = pfds[pi++].revents;
      if ((re & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      bool dead = false;
      for (;;) {
        const ssize_t n = ::recv(c.fd, rbuf, sizeof(rbuf), 0);
        if (n > 0) {
          sink_conn = &c;
          sink_now_us = now_us();
          if (!c.reader.Feed(std::string_view(rbuf, static_cast<size_t>(n)),
                             sink)) {
            dead = true;  // protocol corruption
            break;
          }
          continue;
        }
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        dead = true;  // peer closed or hard error
        break;
      }
      if (dead) {
        fail_conn(c);
      }
    }
  }

  for (Conn& c : conns) {
    if (c.fd >= 0) {
      ::close(c.fd);
    }
  }

  // --- Aggregate (deterministic: segment order, then connection order). --
  result.run_duration_s = sc.duration_s;
  result.completed = completed;
  result.errors = errors;
  result.get_misses = get_misses;
  result.abandoned = abandoned;
  result.per_second_completed = std::move(per_second);
  result.windows = std::move(windows);

  LogHistogram overall = MakeLatencyHistogram();
  for (size_t s = 0; s < num_segments; ++s) {
    LogHistogram seg_hist = MakeLatencyHistogram();
    for (const Conn& c : conns) {
      seg_hist.Merge(c.hists[s]);
    }
    overall.Merge(seg_hist);
    SegmentStats& seg = segs[s];
    seg.label = s == 0 ? "baseline" : "phase" + std::to_string(s - 1);
    seg.duration_s = seg_durations[s];
    if (seg.duration_s > 0.0) {
      seg.offered_rps = static_cast<double>(seg.scheduled) / seg.duration_s;
      seg.achieved_rps = static_cast<double>(seg.completed) / seg.duration_s;
    }
    seg.latency = Summarize(seg_hist);
  }
  result.segments = std::move(segs);
  result.latency = Summarize(overall);
  result.merged_hist = std::move(overall);
  if (sc.duration_s > 0.0) {
    result.offered_rps =
        static_cast<double>(result.scheduled) / sc.duration_s;
    result.achieved_rps = static_cast<double>(completed) / sc.duration_s;
  }
  result.ok = result.error.empty();
  return result;
}

}  // namespace spotcache::loadgen
