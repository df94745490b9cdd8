// The seed-pinned fleet drill (fleet-mode acceptance): real spotcache_server
// processes behind a real spotcache_proxy, a deterministic kill schedule,
// wire-level warm-up, and the absorption contract measured at the client.
// The drill asserts five properties:
//
//   1. the trace shows warning -> kill -> warm-up with Fig 4 case labels;
//   2. warm-up wire bytes respect the token-bucket bound;
//   3. the hit rate recovers to >= 90% of its pre-kill level in-window;
//   4. no client request ever observes a connection error, while the proxy
//      really did absorb upstream failures;
//   5. the kill/launch schedule replays identically from (seed, scenario).
//
// The server binary path arrives as argv[1] (wired by CMake via
// $<TARGET_FILE:spotcache_server>), the proxy binary as argv[2]
// ($<TARGET_FILE:spotcache_proxy>); tests skip without them.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "src/fleet/drill.h"
#include "src/fleet/drill_grid.h"
#include "src/fleet/membership_publisher.h"
#include "src/proxy/membership.h"
#include "src/proxy/upstream_pool.h"

namespace spotcache::fleet {
namespace {

std::string g_server_bin;  // set from argv[1] in main() below
std::string g_proxy_bin;   // set from argv[2] in main() below

FleetDrillConfig PinnedConfig() {
  FleetDrillConfig config;  // defaults: the validated drill geometry
  config.server_binary = g_server_bin;
  config.proxy_binary = g_proxy_bin;
  // Seed 44's schedule walks all three Fig 4 cases (1a, 1b and 2).
  config.seed = 44;
  config.scenario.name = "drill_pinned";
  config.scenario.storm_count = 2;
  config.scenario.storm_market_fraction = 0.34;
  config.scenario.missed_warning_fraction = 0.3;
  config.scenario.late_warning_fraction = 0.2;
  config.scenario.window_end = SimTime() + Duration::Minutes(10);
  return config;
}

// Traffic flows client -> spotcache_proxy (a real supervised process) ->
// fleet, with the open-loop loadgen as the client and the membership file +
// SIGHUP as the control plane. Pins the gate the CI drill job enforces.
TEST(FleetDrill, ProxyRoutedChaosDrillPinned) {
  if (g_server_bin.empty() || g_proxy_bin.empty()) {
    GTEST_SKIP() << "server/proxy binary paths not provided";
  }
  const FleetDrillConfig config = PinnedConfig();
  const FleetDrillReport report = RunFleetDrill(config);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_FALSE(report.schedule.actions.empty());
  ASSERT_EQ(report.recoveries.size(), report.schedule.actions.size());

  // --- Property 5: the schedule is a pure function of (seed, scenario). ---
  KillScheduleParams params;
  params.seed = config.seed;
  params.scenario = config.scenario;
  params.node_count = config.primaries;
  params.window_start = config.lead_in;
  params.window_length = config.chaos_window;
  params.warning_lead = config.warning_lead;
  EXPECT_EQ(BuildKillSchedule(params), report.schedule)
      << "replaying (seed, scenario) must reproduce the kill schedule";

  for (const RecoveryRecord& r : report.recoveries) {
    ASSERT_GE(r.kill_us, 0) << "slot " << r.slot << " was never killed";

    // --- Property 1: ordering and Fig 4 case labels. ---
    if (r.warned) {
      EXPECT_GE(r.warning_us, 0);
      EXPECT_LE(r.warning_us, r.kill_us) << "warning must precede the kill";
    } else {
      EXPECT_EQ(r.warning_us, -1);
    }
    ASSERT_TRUE(r.replacement_ok)
        << "slot " << r.slot << " replacement failed: " << r.warmup.error;
    EXPECT_TRUE(r.case_label == "1a" || r.case_label == "1b" ||
                r.case_label == "2")
        << "unexpected case label '" << r.case_label << "'";
    EXPECT_LE(r.warmup_start_us, r.warmup_end_us);
    if (r.case_label == "1a") {
      EXPECT_TRUE(r.warned);
      EXPECT_LE(r.warmup_end_us, r.kill_us)
          << "case 1a warm-up runs inside the warning window";
    } else {
      EXPECT_GE(r.warmup_start_us, r.kill_us)
          << "case " << r.case_label << " warm-up is post-mortem";
    }
    if (r.case_label == "2") {
      EXPECT_FALSE(r.warned);
    }

    // The control-plane trace carries the same story.
    EXPECT_NE(report.trace_jsonl.find("\"revocation\""), std::string::npos);
    EXPECT_NE(
        report.trace_jsonl.find("\"warmup_start\""), std::string::npos);
    EXPECT_NE(report.trace_jsonl.find("\"case\":\"" + r.case_label + "\""),
              std::string::npos);
    if (r.warned) {
      EXPECT_NE(report.trace_jsonl.find("\"revocation_warning\""),
                std::string::npos);
    }

    // --- Property 2: warm-up bytes respect the token bucket. ---
    ASSERT_TRUE(r.warmup.ok) << r.warmup.error;
    EXPECT_GT(r.warmup.items_copied, 0u);
    EXPECT_LE(static_cast<double>(r.warmup.bytes_copied),
              config.warmup.initial_tokens +
                  config.warmup.bytes_per_sec * r.warmup.duration_s +
                  config.warmup.burst_bytes)
        << "slot " << r.slot << " streamed faster than the bucket allows";
  }

  // --- Property 3: hit-rate recovery within the drill window. ---
  EXPECT_GT(report.pre_kill_hit_rate, 0.5)
      << "prefill + lead-in should produce a warm baseline";
  EXPECT_TRUE(report.recovered)
      << "hit rate never re-reached " << config.recovery_threshold
      << " of pre-kill " << report.pre_kill_hit_rate << " (final "
      << report.final_hit_rate << ")";

  // --- Property 4: the absorption contract, measured at the real client
  // socket: the loadgen never failed to connect and never abandoned a
  // connection mid-stream, even though the fleet behind the proxy was being
  // SIGKILLed. ---
  EXPECT_EQ(report.loadgen.failed_conns, 0u);
  EXPECT_EQ(report.loadgen.abandoned, 0u);
  EXPECT_GT(report.loadgen.completed, 0u);
  EXPECT_GT(report.total_ops, 0u);

  // The kills were real and the proxy absorbed them (else the contract was
  // vacuous), and the membership control plane actually stepped.
  const auto absorbed = report.proxy_stats.find("proxy_absorbed_failures");
  ASSERT_NE(absorbed, report.proxy_stats.end())
      << "drill did not scrape the proxy's stats block";
  EXPECT_GT(absorbed->second, 0u);
  EXPECT_GT(report.membership_generation, 0u);
  const auto generation = report.proxy_stats.find("proxy_generation");
  ASSERT_NE(generation, report.proxy_stats.end());
  EXPECT_EQ(generation->second, report.membership_generation)
      << "proxy never applied the controller's final membership edition";

  // The JSON rendering carries the drill story and the client-side
  // acceptance numbers.
  const std::string json = RenderDrillJson(report);
  EXPECT_NE(json.find("\"schedule\""), std::string::npos);
  EXPECT_NE(json.find("\"recoveries\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"proxy\": {\"membership_generation\""),
            std::string::npos);
  EXPECT_NE(json.find("\"failed_conns\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"proxy_absorbed_failures\""), std::string::npos);
}

// The publisher writes the membership file as soon as the fleet is up, so
// every exit from the drill must remove it — including the early ones (here
// the proxy binary cannot be launched).
TEST(FleetDrill, FailedProxyLaunchRemovesTheMembershipFile) {
  if (g_server_bin.empty()) {
    GTEST_SKIP() << "server binary path not provided";
  }
  FleetDrillConfig config = PinnedConfig();
  config.proxy_binary = "/nonexistent/spotcache_proxy";
  config.supervisor.retry.initial_delay = Duration::Millis(5);
  config.supervisor.retry.max_delay = Duration::Millis(20);

  const FleetDrillReport report = RunFleetDrill(config);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("proxy launch failed"), std::string::npos)
      << report.error;
  const std::string members_path =
      "/tmp/spotcache_members_" + std::to_string(::getpid()) + ".txt";
  EXPECT_NE(::access(members_path.c_str(), F_OK), 0)
      << members_path << " outlived the drill";
}

// The grid's axes, cost arithmetic and table, without a real drill per
// cell: the cells' drills fail at the first launch (no server binary), and
// the recovered / unrecovered rows are rendered from edited reports.
TEST(DrillGrid, CellsCostsAndTable) {
  FleetDrillConfig base = PinnedConfig();
  const std::vector<DrillGridCell> cells = DefaultDrillGrid(base);
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells.front().seed, base.seed);
  EXPECT_EQ(cells.back().seed, base.seed + 1);
  EXPECT_EQ(cells[0].storms, 1);
  EXPECT_EQ(cells[2].storms, base.primaries);
  EXPECT_EQ(cells[0].missed_warning_fraction, 0.0);
  EXPECT_EQ(cells[1].missed_warning_fraction, 1.0);

  base.server_binary = "/nonexistent/spotcache_server";
  base.supervisor.retry.initial_delay = Duration::Millis(5);
  base.supervisor.retry.max_delay = Duration::Millis(20);
  std::vector<DrillGridRow> rows = RunDrillGrid(base, {cells[0], cells[3]});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].cell.label, "seed44/1 storm/warned");
  EXPECT_EQ(rows[1].cell.label, "seed44/3 storms/unwarned");
  for (const DrillGridRow& row : rows) {
    EXPECT_FALSE(row.report.ok);
    EXPECT_NE(row.report.error.find("backup launch failed"),
              std::string::npos)
        << row.report.error;
    // 3 spot primaries + burstable backup + proxy vs 4 on-demand + proxy.
    EXPECT_DOUBLE_EQ(row.fleet_cost_hr, 3 * 0.027 + 0.052 + 0.052);
    EXPECT_DOUBLE_EQ(row.on_demand_cost_hr, 4 * 0.120 + 0.052);
    EXPECT_DOUBLE_EQ(row.savings_fraction,
                     1.0 - row.fleet_cost_hr / row.on_demand_cost_hr);
  }

  FleetDrillReport& recovered = rows[1].report;
  recovered.ok = true;
  recovered.recovered = true;
  recovered.recovered_us = 900'000;
  recovered.pre_kill_hit_rate = 1.0;
  recovered.final_hit_rate = 0.962;
  recovered.loadgen.latency.p99_us = 3720.0;
  rows.push_back(rows[1]);
  rows.back().report.recovered = false;
  rows.back().report.loadgen.failed_conns = 1;
  rows.back().report.loadgen.abandoned = 2;
  rows.push_back(rows[1]);
  rows.back().report.recovered_us = -1;  // nothing was killed
  EXPECT_EQ(RenderDrillGridMarkdown(rows),
            "| cell | $/h (spot+backup+proxy) | $/h (on-demand) | saved | "
            "pre-kill hit | final hit | recovered | p99 (ms) | conn errors |\n"
            "|---|---|---|---|---|---|---|---|---|\n"
            "| seed44/1 storm/warned | 0.185 | 0.532 | 65% | 0.000 | 0.000 | "
            "error | 0.00 | 0 |\n"
            "| seed44/3 storms/unwarned | 0.185 | 0.532 | 65% | 1.000 | "
            "0.962 | yes @900ms | 3.72 | 0 |\n"
            "| seed44/3 storms/unwarned | 0.185 | 0.532 | 65% | 1.000 | "
            "0.962 | no | 3.72 | 3 |\n"
            "| seed44/3 storms/unwarned | 0.185 | 0.532 | 65% | 1.000 | "
            "0.962 | yes | 3.72 | 0 |\n");
}

// MembershipPublisher is the controller half of the proxy control plane:
// every fleet mutation must land on disk as a complete, parseable document
// with a bumped generation, fire the notify hook, and keep the mirror ring's
// OwnerOf stable across a kill (dead slots keep their keys — the proxy
// degrades them, it does not rehash). The drill picks the hot keys it
// re-feeds to a replacement from that mirror ring, so it must home every key
// exactly where the proxy's UpstreamPool does, generation after generation.
TEST(MembershipPublisher, PublishesAtomicGenerationsAndMirrorsTheRing) {
  const std::string path = ::testing::TempDir() + "membership_pub_" +
                           std::to_string(::getpid()) + ".txt";
  int notifies = 0;
  MembershipPublisher pub(path, [&notifies] { ++notifies; });

  pub.SetBackup("127.0.0.1", 18000);
  pub.SetNode(0, "127.0.0.1", 18001);
  pub.SetNode(1, "127.0.0.1", 18002);
  EXPECT_TRUE(pub.healthy());
  EXPECT_EQ(notifies, 3);
  EXPECT_EQ(pub.generation(), 3u);

  auto loaded = proxy::LoadMembership(path);
  ASSERT_TRUE(loaded.has_value()) << "published file must parse";
  EXPECT_EQ(loaded->generation, 3u);
  ASSERT_TRUE(loaded->backup.has_value());
  EXPECT_EQ(loaded->backup->port, 18000);
  ASSERT_EQ(loaded->nodes.size(), 2u);

  // The in-memory snapshot is the same document the file round-trips.
  const proxy::FleetMembership snap = pub.Snapshot();
  EXPECT_EQ(snap.generation, loaded->generation);
  EXPECT_EQ(snap.nodes.size(), loaded->nodes.size());

  proxy::UpstreamPool pool(proxy::UpstreamPoolConfig{}, nullptr);
  const auto expect_pool_mirrors_ring = [&pub, &pool](const char* when) {
    pool.ApplyMembership(pub.Snapshot());
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "fk:" + std::to_string(i);
      ASSERT_EQ(pool.OwnerOf(key), pub.OwnerOf(key)) << key << " " << when;
    }
  };
  expect_pool_mirrors_ring("before the kill");

  // Ownership before the kill...
  const auto owner_a = pub.OwnerOf("alpha");
  const auto owner_b = pub.OwnerOf("beta");
  ASSERT_TRUE(owner_a.has_value());
  ASSERT_TRUE(owner_b.has_value());

  // ...survives MarkDead: the slot stays on the ring, the file says `dead`.
  pub.MarkDead(*owner_a);
  EXPECT_EQ(pub.generation(), 4u);
  EXPECT_EQ(pub.OwnerOf("alpha"), owner_a);
  EXPECT_EQ(pub.OwnerOf("beta"), owner_b);
  loaded = proxy::LoadMembership(path);
  ASSERT_TRUE(loaded.has_value());
  bool saw_dead = false;
  for (const proxy::MemberNode& n : loaded->nodes) {
    if (n.slot == *owner_a) {
      saw_dead = n.dead();
    }
  }
  EXPECT_TRUE(saw_dead) << "killed slot must publish as dead, not vanish";
  expect_pool_mirrors_ring("after MarkDead");

  // A replacement on the same slot revives it in the next edition.
  pub.SetNode(*owner_a, "127.0.0.1", 18005);
  loaded = proxy::LoadMembership(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 5u);
  for (const proxy::MemberNode& n : loaded->nodes) {
    if (n.slot == *owner_a) {
      EXPECT_FALSE(n.dead());
      EXPECT_EQ(n.port, 18005);
    }
  }
  EXPECT_EQ(notifies, 5);
  expect_pool_mirrors_ring("after the revive");
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace spotcache::fleet

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) {
    spotcache::fleet::g_server_bin = argv[1];
  }
  if (argc > 2) {
    spotcache::fleet::g_proxy_bin = argv[2];
  }
  return RUN_ALL_TESTS();
}
