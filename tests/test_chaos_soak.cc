// Chaos soak: the PR-1 fault scenarios cranked to 3x the worst bench row and
// driven through the full experiment harness with the resilience layer on.
// The run must survive (no crash, no throw), shed no more than the admission
// budget, recover once the storm passes, and replay bit-identically — the
// JSONL trace and CSV series are compared byte-for-byte across two runs.
//
// Set SPOTCACHE_CHAOS_TRACE=<path> to write the run's JSONL trace to disk
// (CI uploads it as an artifact when this test fails).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/exec/experiment_grid.h"

namespace spotcache {
namespace {

// The bench_fault_storm "storm+no-warn+outage" row at 3x intensity: three
// times the storms, outages, backup losses, and token exhaustions, all with
// no revocation warnings, inside a one-day window of a three-day run.
ExperimentConfig ChaosSoakConfig() {
  ExperimentConfig cfg;
  cfg.workload = PrototypeWorkload(/*days=*/3);
  cfg.approach = Approach::kProp;
  cfg.fault.name = "chaos-soak-3x";
  cfg.fault.window_start = SimTime() + Duration::Days(7) + Duration::Hours(6);
  cfg.fault.window_end = SimTime() + Duration::Days(8) + Duration::Hours(6);
  cfg.fault.storm_count = 9;
  cfg.fault.storm_market_fraction = 1.0;
  cfg.fault.missed_warning_fraction = 1.0;
  cfg.fault.launch_outage_count = 6;
  cfg.fault.launch_outage_length = Duration::Hours(4);
  cfg.fault.backup_loss_count = 6;
  cfg.fault.token_exhaustion_count = 6;
  // Seed-pinned so the storm/outage interleaving exercises every resilience
  // mechanism: revocations inside launch outages (in-step retries, breaker
  // trips on the option's launch path) plus enough overload to shed.
  cfg.fault_seed = 0x7e8;
  cfg.revocation_cooldown = Duration::Hours(3);
  cfg.resilience.enabled = true;
  cfg.obs.enabled = true;  // exercise the full export path under the storm
  return cfg;
}

// The run starts 7 days into the price traces; slot times are absolute.
bool InStorm(const ExperimentConfig& cfg, const SlotRecord& rec) {
  return rec.start >= cfg.fault.window_start &&
         rec.start < cfg.fault.window_end;
}

TEST(ChaosSoak, SurvivesShedsWithinBudgetAndRecovers) {
  const ExperimentConfig cfg = ChaosSoakConfig();
  const ExperimentResult r = RunExperiment(cfg);  // no crash, no throw

  if (const char* path = std::getenv("SPOTCACHE_CHAOS_TRACE")) {
    std::ofstream out(path);
    out << r.trace_jsonl;
  }

  // The storm actually happened: correlated revocations, suppressed
  // warnings, and launch failures all materialized.
  EXPECT_GT(r.revocations, 10);
  EXPECT_GT(r.faults.warnings_suppressed, 0);
  EXPECT_GT(r.faults.launch_failures, 0);

  // Every resilience mechanism fired and was published through the obs
  // vocabulary: in-step replacement retries, circuit-breaker transitions on
  // the stormed options' launch paths, and admission-control sheds.
  EXPECT_NE(r.trace_jsonl.find("\"type\":\"retry_attempt\""),
            std::string::npos);
  EXPECT_NE(r.trace_jsonl.find("\"type\":\"breaker_transition\""),
            std::string::npos);
  EXPECT_NE(r.trace_jsonl.find("\"type\":\"shed\""), std::string::npos);

  // Drop rate is a policy outcome, bounded by the configured shed budget —
  // per slot and overall (arrival-weighted).
  const double budget = cfg.resilience.admission.shed_budget;
  ASSERT_FALSE(r.slots.empty());
  for (size_t i = 0; i < r.slots.size(); ++i) {
    EXPECT_LE(r.slots[i].shed_fraction, budget + 1e-9) << "slot " << i;
  }
  EXPECT_LE(r.tracker.ShedRequestFraction(), budget + 1e-9);

  // Recovery is monotone at slot granularity: a launch outage that starts at
  // the end of the window can pin the cluster down for one more outage
  // length, but once that horizon (plus one replan slot to re-provision)
  // drains, shedding stops entirely and the affected fraction settles back
  // to the fault-free noise floor.
  std::vector<const SlotRecord*> tail;
  const SimTime settle = cfg.fault.window_end +
                         cfg.fault.launch_outage_length + Duration::Hours(1);
  for (const SlotRecord& rec : r.slots) {
    if (rec.start >= settle) {
      tail.push_back(&rec);
    }
  }
  ASSERT_GT(tail.size(), 4u) << "run too short to observe recovery";
  double tail_affected_max = 0.0;
  for (const SlotRecord* rec : tail) {
    EXPECT_DOUBLE_EQ(rec->shed_fraction, 0.0)
        << "still shedding after the storm at t=" << ToString(rec->start);
    tail_affected_max = std::max(tail_affected_max, rec->affected_fraction);
  }
  double storm_affected_peak = 0.0;
  for (const SlotRecord& rec : r.slots) {
    if (InStorm(cfg, rec)) {
      storm_affected_peak = std::max(storm_affected_peak,
                                     rec.affected_fraction);
    }
  }
  EXPECT_GT(storm_affected_peak, tail_affected_max)
      << "storm should dominate the post-recovery noise floor";
}

TEST(ChaosSoak, ReplaysBitIdentically) {
  const ExperimentConfig cfg = ChaosSoakConfig();
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);

  // Headline aggregates: exact, not NEAR.
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(a.launch_failures, b.launch_failures);
  EXPECT_EQ(a.failed_replacements, b.failed_replacements);
  EXPECT_TRUE(a.faults == b.faults) << "fault counters diverged";
  EXPECT_EQ(a.tracker.ShedRequestFraction(), b.tracker.ShedRequestFraction());

  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (size_t s = 0; s < a.slots.size(); ++s) {
    SCOPED_TRACE("slot " + std::to_string(s));
    EXPECT_EQ(a.slots[s].shed_fraction, b.slots[s].shed_fraction);
    EXPECT_EQ(a.slots[s].affected_fraction, b.slots[s].affected_fraction);
    EXPECT_EQ(a.slots[s].cost, b.slots[s].cost);
    EXPECT_EQ(a.slots[s].counts, b.slots[s].counts);
  }

  // The exported artifacts are sim-time only: byte-identical across runs,
  // breaker trips, retries, sheds and all.
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.metrics_csv, b.metrics_csv);
  EXPECT_FALSE(a.trace_jsonl.empty());
}

// Pins the whole run — costs, every slot record, the JSONL trace and the
// metrics CSV — so a refactor of the breaker / retry / shed path cannot
// drift silently. Re-record only for an intended behaviour change.
TEST(ChaosSoak, DigestIsPinned) {
  const ExperimentResult r = RunExperiment(ChaosSoakConfig());
  EXPECT_EQ(DigestExperimentResult(r), 0x37d14d0b05f93a55ULL);
}

// With resilience off, the same storm must leave every legacy output
// untouched: the layer is opt-in and its absence is the pre-change binary.
TEST(ChaosSoak, DisabledResilienceMatchesLegacyHarness) {
  ExperimentConfig cfg = ChaosSoakConfig();
  cfg.resilience.enabled = false;
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_EQ(r.tracker.ShedRequestFraction(), 0.0);
  for (const SlotRecord& rec : r.slots) {
    EXPECT_DOUBLE_EQ(rec.shed_fraction, 0.0);
  }
}

}  // namespace
}  // namespace spotcache
