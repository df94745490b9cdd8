#include "src/fleet/drill.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/fleet/membership_publisher.h"
#include "src/net/client.h"
#include "src/obs/exporters.h"

namespace spotcache::fleet {

namespace {

int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string KeyName(uint64_t id) { return "fk:" + std::to_string(id); }

/// Aggregated hit rate over a window range (inclusive indices).
double AggregateHitRate(const std::vector<DrillWindow>& windows, size_t begin,
                        size_t end) {
  uint64_t gets = 0;
  uint64_t hits = 0;
  for (size_t i = begin; i < end && i < windows.size(); ++i) {
    gets += windows[i].gets;
    hits += windows[i].hits;
  }
  return gets == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(gets);
}

/// Pre-kill / final hit rates and the recovery verdict, derived from
/// report->windows + report->recoveries.
void FinalizeSummary(const FleetDrillConfig& config, int64_t window_us,
                     FleetDrillReport* report) {
  int64_t first_kill_us = -1;
  int64_t last_kill_us = -1;
  for (const RecoveryRecord& r : report->recoveries) {
    if (r.kill_us >= 0) {
      first_kill_us = first_kill_us < 0 ? r.kill_us
                                        : std::min(first_kill_us, r.kill_us);
      last_kill_us = std::max(last_kill_us, r.kill_us);
    }
  }

  if (first_kill_us > 0) {
    const size_t pre_end = static_cast<size_t>(first_kill_us / window_us);
    report->pre_kill_hit_rate = AggregateHitRate(report->windows, 0, pre_end);
  } else {
    report->pre_kill_hit_rate =
        AggregateHitRate(report->windows, 0, report->windows.size());
  }

  // Final rate: the last fifth of the run (at least one window).
  const size_t tail_begin =
      report->windows.size() -
      std::min(report->windows.size(),
               std::max<size_t>(report->windows.size() / 5, 1));
  report->final_hit_rate =
      AggregateHitRate(report->windows, tail_begin, report->windows.size());

  if (last_kill_us >= 0) {
    const double target =
        config.recovery_threshold * report->pre_kill_hit_rate;
    for (const DrillWindow& w : report->windows) {
      if (w.start_us < last_kill_us || w.gets == 0) {
        continue;
      }
      if (w.HitRate() >= target) {
        report->recovered_us = w.start_us;
        report->recovered = true;
        break;
      }
    }
  } else {
    report->recovered = true;  // nothing was killed; trivially recovered
  }
}

/// Pipelined closed-loop prefill of keys [0, n) into host:port, with the
/// same key names ("fk:<id>") and value bytes the loadgen stream writes.
bool PrefillEndpoint(const std::string& host, uint16_t port, uint64_t n,
                     size_t value_bytes, int timeout_ms) {
  net::NetClient client;
  if (!client.Connect(host, port, timeout_ms)) {
    return false;
  }
  const std::string value(value_bytes, 'v');
  constexpr uint64_t kBatch = 128;
  for (uint64_t base = 0; base < n; base += kBatch) {
    const uint64_t end = std::min(base + kBatch, n);
    std::string batch;
    for (uint64_t id = base; id < end; ++id) {
      batch += "set " + KeyName(id) + " 0 0 " +
               std::to_string(value.size()) + "\r\n" + value + "\r\n";
    }
    if (!client.SendRaw(batch)) {
      return false;
    }
    for (uint64_t id = base; id < end; ++id) {
      if (client.ReadLine() != "STORED") {
        return false;
      }
    }
  }
  return true;
}

/// Scrapes the proxy's deterministic `stats` block into name -> value.
std::map<std::string, uint64_t> ScrapeProxyStats(uint16_t port) {
  std::map<std::string, uint64_t> stats;
  net::NetClient client;
  if (!client.Connect("127.0.0.1", port, 2000)) {
    return stats;
  }
  if (!client.SendRaw("stats\r\n")) {
    return stats;
  }
  for (int i = 0; i < 256; ++i) {
    const auto line = client.ReadLine();
    if (!line.has_value() || *line == "END") {
      break;
    }
    // "STAT <name> <value>" (the version line fails the number parse and is
    // skipped).
    const std::string& s = *line;
    if (s.rfind("STAT ", 0) != 0) {
      continue;
    }
    const size_t space = s.rfind(' ');
    if (space == std::string::npos || space < 5) {
      continue;
    }
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str() + space + 1, &end, 10);
    if (end == nullptr || *end != '\0') {
      continue;
    }
    stats[s.substr(5, space - 5)] = static_cast<uint64_t>(v);
  }
  return stats;
}

/// Removes the membership file on every exit from the drill (the publisher
/// writes it as soon as the fleet's backup is registered).
struct UnlinkOnExit {
  explicit UnlinkOnExit(const std::string& p) : path(p) {}
  UnlinkOnExit(const UnlinkOnExit&) = delete;
  ~UnlinkOnExit() { ::unlink(path.c_str()); }
  const std::string& path;
};

}  // namespace

FleetDrillReport RunFleetDrill(const FleetDrillConfig& config) {
  FleetDrillReport report;

  // --- The pure half: the kill schedule. ---
  KillScheduleParams sched_params;
  sched_params.seed = config.seed;
  sched_params.scenario = config.scenario;
  sched_params.node_count = config.primaries;
  sched_params.window_start = config.lead_in;
  sched_params.window_length = config.chaos_window;
  sched_params.warning_lead = config.warning_lead;
  report.schedule = BuildKillSchedule(sched_params);

  EventTracer control_tracer;
  control_tracer.set_enabled(true);

  const std::string members_path =
      "/tmp/spotcache_members_" + std::to_string(::getpid()) + ".txt";
  const UnlinkOnExit unlink_members(members_path);

  // The proxy learns every chaos action via membership generations; until it
  // is spawned the publisher just writes the file.
  std::atomic<pid_t> proxy_pid{-1};
  MembershipPublisher publisher(members_path, [&proxy_pid] {
    const pid_t pid = proxy_pid.load(std::memory_order_relaxed);
    if (pid > 0) {
      ::kill(pid, SIGHUP);
    }
  });

  FleetControllerConfig ctl;
  ctl.supervisor = config.supervisor;
  ctl.supervisor.server_binary = config.server_binary;
  ctl.supervisor.seed = config.seed;
  ctl.warmup = config.warmup;
  ctl.primaries = config.primaries;
  ctl.capacity_mb = config.capacity_mb;
  ctl.replacement_boot_delay = config.replacement_boot_delay;
  FleetController controller(ctl, &publisher, &control_tracer);

  std::string error;
  if (!controller.StartFleet(&error)) {
    report.error = error;
    return report;
  }
  if (!publisher.healthy()) {
    report.error = "membership publish failed: " + members_path;
    return report;
  }

  // --- The proxy process, supervised like any fleet node (same readiness
  // contract, same retry schedule). ---
  SupervisorConfig proxy_sup_config = config.supervisor;
  proxy_sup_config.server_binary = config.proxy_binary;
  proxy_sup_config.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  proxy_sup_config.base_args = {"--fleet=" + members_path};
  ProcessSupervisor proxy_sup(proxy_sup_config);
  SpawnResult proxy = proxy_sup.Spawn("proxy", {"--port=0"});
  if (!proxy.ok) {
    report.error = "proxy launch failed: " + proxy.error;
    controller.StopFleet();
    return report;
  }
  proxy_pid.store(proxy.process.pid, std::memory_order_relaxed);

  // --- Prefill through the proxy (keys land on their ring owners), plus
  // the hot set into the backup directly. ---
  if (!PrefillEndpoint("127.0.0.1", proxy.process.port, config.num_keys,
                       config.value_bytes, 2000)) {
    report.error = "prefill through proxy failed";
    proxy_sup.Terminate(proxy.process);
    controller.StopFleet();
    return report;
  }
  if (!PrefillEndpoint("127.0.0.1", controller.backup_port(),
                       std::min(config.hot_keys, config.num_keys),
                       config.value_bytes, 2000)) {
    report.error = "prefill backup failed";
    proxy_sup.Terminate(proxy.process);
    controller.StopFleet();
    return report;
  }

  const auto hot_keys_for_slot = [&](int slot) {
    std::vector<std::string> keys;
    for (uint64_t id = 0; id < config.hot_keys && id < config.num_keys;
         ++id) {
      std::string key = KeyName(id);
      const auto owner = publisher.OwnerOf(key);
      if (owner.has_value() && *owner == static_cast<uint64_t>(slot)) {
        keys.push_back(std::move(key));
      }
    }
    return keys;
  };

  // --- Open-loop traffic through the proxy, windowed by completion time. ---
  const Duration total_duration =
      config.lead_in + config.chaos_window + config.recovery_window;
  const int64_t window_us = std::max<int64_t>(config.hit_window.micros(), 1);

  loadgen::EngineConfig lg;
  lg.host = "127.0.0.1";
  lg.port = proxy.process.port;
  lg.connections = std::max(config.proxy_connections, 1);
  lg.prefill = false;     // done above, through the proxy
  lg.probe_shards = false;
  lg.key_prefix = "fk:";  // KeyName() format
  lg.window_us = window_us;
  lg.read_through = config.read_through;
  lg.stream.seed = config.seed ^ 0xf1ee7d41ULL;
  lg.stream.schedule.kind = loadgen::ScheduleConfig::Kind::kPoisson;
  lg.stream.schedule.base_rate_rps = config.rate;
  lg.stream.schedule.duration_s =
      static_cast<double>(total_duration.micros()) / 1e6;
  lg.stream.keys = {.num_keys = config.num_keys, .theta = config.zipf_theta,
                    .scramble = false};
  lg.stream.mix.get_ratio = 1.0 - config.set_fraction;
  lg.stream.mix.value_bytes = static_cast<uint32_t>(config.value_bytes);

  const int64_t epoch_us = WallUs();
  loadgen::LoadGenResult lg_result;
  std::thread traffic([&] { lg_result = loadgen::RunOpenLoop(lg); });

  // --- The chaos: the controller kills primaries while the proxy absorbs. --
  report.recoveries =
      controller.ExecuteSchedule(report.schedule, hot_keys_for_slot, epoch_us);
  traffic.join();

  report.proxy_stats = ScrapeProxyStats(proxy.process.port);
  report.membership_generation = publisher.generation();
  proxy_sup.Terminate(proxy.process);
  controller.StopFleet();

  if (!lg_result.ok) {
    report.error = "loadgen through proxy failed: " + lg_result.error;
    return report;
  }

  // --- Client-observed windows. ---
  report.windows.reserve(lg_result.windows.size());
  for (const loadgen::LoadGenWindow& w : lg_result.windows) {
    DrillWindow dw;
    dw.start_us = w.start_us;
    dw.gets = w.gets;
    dw.hits = w.get_hits;
    dw.misses = w.get_misses;
    dw.sheds = w.errors;
    dw.sets = w.sets;
    report.windows.push_back(dw);
  }
  report.total_ops = lg_result.completed;
  report.duration_s = static_cast<double>(WallUs() - epoch_us) / 1e6;
  report.loadgen = std::move(lg_result);

  FinalizeSummary(config, window_us, &report);
  report.trace_jsonl = ToJsonl(control_tracer);
  report.ok = report.error.empty();
  return report;
}

std::string RenderDrillJson(const FleetDrillReport& report) {
  using spotcache::EventTracer;
  std::string out = "{\n";
  auto num = [](double v) { return EventTracer::JsonNumber(v); };
  auto inum = [](int64_t v) { return EventTracer::JsonNumber(v); };

  out += "\"ok\": " + std::string(report.ok ? "true" : "false") + ",\n";
  if (!report.error.empty()) {
    out += "\"error\": " + EventTracer::JsonString(report.error) + ",\n";
  }

  out += "\"schedule\": [";
  for (size_t i = 0; i < report.schedule.actions.size(); ++i) {
    const KillAction& a = report.schedule.actions[i];
    if (i > 0) {
      out += ", ";
    }
    out += "{\"kill_at_ms\": " + inum(a.kill_at.micros() / 1000) +
           ", \"slot\": " + inum(a.slot) +
           ", \"warned\": " + (a.warned ? "true" : "false") +
           ", \"late\": " + (a.late ? "true" : "false") +
           ", \"warning_lead_ms\": " + inum(a.warning_lead.micros() / 1000) +
           "}";
  }
  out += "],\n";

  out += "\"recoveries\": [";
  for (size_t i = 0; i < report.recoveries.size(); ++i) {
    const RecoveryRecord& r = report.recoveries[i];
    if (i > 0) {
      out += ", ";
    }
    out += "{\"slot\": " + inum(r.slot) +
           ", \"case\": " + EventTracer::JsonString(r.case_label) +
           ", \"warned\": " + (r.warned ? "true" : "false") +
           ", \"planned_kill_ms\": " +
           inum(r.planned_kill_at.micros() / 1000) +
           ", \"warning_us\": " + inum(r.warning_us) +
           ", \"kill_us\": " + inum(r.kill_us) +
           ", \"replacement_ready_us\": " + inum(r.replacement_ready_us) +
           ", \"warmup_start_us\": " + inum(r.warmup_start_us) +
           ", \"warmup_end_us\": " + inum(r.warmup_end_us) +
           ", \"replacement_ok\": " + (r.replacement_ok ? "true" : "false") +
           ", \"spawn_attempts\": " + inum(r.spawn_attempts) +
           ", \"warmup\": {\"items_copied\": " + inum(r.warmup.items_copied) +
           ", \"items_missing\": " + inum(r.warmup.items_missing) +
           ", \"bytes_copied\": " + inum(r.warmup.bytes_copied) +
           ", \"reconnects\": " + inum(r.warmup.reconnects) +
           ", \"duration_s\": " + num(r.warmup.duration_s) +
           ", \"token_rate_bytes_per_s\": " + num(r.warmup.token_rate) +
           ", \"token_burst_bytes\": " + num(r.warmup.token_burst) +
           ", \"token_initial_bytes\": " + num(r.warmup.token_initial) +
           "}}";
  }
  out += "],\n";

  out += "\"windows\": [";
  bool first = true;
  for (const DrillWindow& w : report.windows) {
    if (w.gets == 0 && w.sets == 0) {
      continue;  // trailing empty buckets
    }
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "{\"start_ms\": " + inum(w.start_us / 1000) +
           ", \"gets\": " + inum(w.gets) + ", \"hits\": " + inum(w.hits) +
           ", \"misses\": " + inum(w.misses) +
           ", \"sheds\": " + inum(w.sheds) +
           ", \"sets\": " + inum(w.sets) +
           ", \"hit_rate\": " + num(w.HitRate()) + "}";
  }
  out += "],\n";

  const loadgen::LoadGenResult& lg = report.loadgen;
  out += "\"proxy\": {\"membership_generation\": " +
         inum(static_cast<int64_t>(report.membership_generation)) +
         ", \"offered_rps\": " + num(lg.offered_rps) +
         ", \"achieved_rps\": " + num(lg.achieved_rps) +
         ", \"scheduled\": " + inum(lg.scheduled) +
         ", \"completed\": " + inum(lg.completed) +
         ", \"errors\": " + inum(lg.errors) +
         ", \"failed_conns\": " + inum(lg.failed_conns) +
         ", \"abandoned\": " + inum(lg.abandoned) +
         ", \"p50_us\": " + num(lg.latency.p50_us) +
         ", \"p99_us\": " + num(lg.latency.p99_us) +
         ", \"stats\": {";
  bool first_stat = true;
  for (const auto& [name, value] : report.proxy_stats) {
    if (!first_stat) {
      out += ", ";
    }
    first_stat = false;
    out += EventTracer::JsonString(name) + ": " +
           inum(static_cast<int64_t>(value));
  }
  out += "}},\n";

  out += "\"summary\": {\"pre_kill_hit_rate\": " +
         num(report.pre_kill_hit_rate) +
         ", \"final_hit_rate\": " + num(report.final_hit_rate) +
         ", \"recovered\": " + (report.recovered ? "true" : "false") +
         ", \"recovered_us\": " + inum(report.recovered_us) +
         ", \"total_ops\": " + inum(report.total_ops) +
         ", \"duration_s\": " + num(report.duration_s) + "}\n";
  out += "}\n";
  return out;
}

}  // namespace spotcache::fleet
