#include "src/core/cluster.h"

#include <gtest/gtest.h>

#include "src/cloud/spot_price_model.h"
#include "src/fault/fault_injector.h"
#include "src/opt/optimizer.h"

namespace spotcache {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    // One deterministic market: cheap, spike above bid1 at hour 5 for 1 hour.
    PriceTrace trace;
    trace.Append(SimTime(), 0.02);
    trace.Append(SimTime() + Duration::Hours(5), 0.15);
    trace.Append(SimTime() + Duration::Hours(6), 0.02);
    trace.SetEnd(SimTime() + Duration::Days(5));
    std::vector<SpotMarket> markets;
    markets.push_back(
        {"mkt", catalog_.Find("m4.large"), "z", std::move(trace)});
    provider_ = std::make_unique<CloudProvider>(&catalog_, std::move(markets), 1);
    provider_->SetBootDelay(Duration::Seconds(100), Duration::Seconds(0));
    options_ = BuildOptions(catalog_, provider_->markets(), {1.0, 5.0});
  }

  size_t OptionIndex(const std::string& label) const {
    for (size_t o = 0; o < options_.size(); ++o) {
      if (options_[o].label == label) {
        return o;
      }
    }
    return options_.size();
  }

  AllocationPlan SimplePlan(size_t option, int count, double x, double y) {
    AllocationPlan plan;
    plan.feasible = true;
    plan.items.push_back({option, count, x, y});
    return plan;
  }

  SlotContext Context(double lambda = 30e3, double ws = 10.0) {
    return {lambda, ws, 0.2, 0.9, 1.0, 1.0};
  }

  InstanceCatalog catalog_ = InstanceCatalog::Default();
  std::unique_ptr<CloudProvider> provider_;
  std::vector<ProcurementOption> options_;
};

TEST_F(ClusterTest, ApplyLaunchesToTarget) {
  Cluster cluster(provider_.get(), &options_, {});
  const auto result =
      cluster.Apply(SimplePlan(OptionIndex("od:r3.large"), 3, 0.2, 0.8),
                    Context());
  EXPECT_EQ(result.launched, 3);
  EXPECT_EQ(result.terminated, 0);
  EXPECT_EQ(cluster.ExistingCounts()[OptionIndex("od:r3.large")], 3);
}

TEST_F(ClusterTest, ApplyScalesDown) {
  Cluster cluster(provider_.get(), &options_, {});
  const size_t opt = OptionIndex("od:r3.large");
  cluster.Apply(SimplePlan(opt, 5, 0.2, 0.8), Context());
  const auto result = cluster.Apply(SimplePlan(opt, 2, 0.2, 0.8), Context());
  EXPECT_EQ(result.terminated, 3);
  EXPECT_EQ(cluster.ExistingCounts()[opt], 2);
}

TEST_F(ClusterTest, BackupFleetSizedToHotOnSpot) {
  ClusterConfig cfg;
  cfg.use_backup = true;
  Cluster cluster(provider_.get(), &options_, cfg);
  // 20% of a 40 GB set = 8 GB hot on spot -> ceil(8 / (4*0.85)) = 3 t2.medium.
  const auto result =
      cluster.Apply(SimplePlan(OptionIndex("mkt@5d"), 6, 0.2, 0.8),
                    Context(30e3, 40.0));
  EXPECT_EQ(result.backup_count, 3);
  // No hot on spot -> no backups.
  const auto none =
      cluster.Apply(SimplePlan(OptionIndex("od:r3.large"), 5, 0.2, 0.8),
                    Context(30e3, 40.0));
  EXPECT_EQ(none.backup_count, 0);
}

TEST_F(ClusterTest, NoBackupWhenDisabled) {
  Cluster cluster(provider_.get(), &options_, {});
  const auto result = cluster.Apply(
      SimplePlan(OptionIndex("mkt@5d"), 6, 0.2, 0.8), Context(30e3, 40.0));
  EXPECT_EQ(result.backup_count, 0);
}

TEST_F(ClusterTest, BidRejectionCounted) {
  Cluster cluster(provider_.get(), &options_, {});
  provider_->AdvanceTo(SimTime() + Duration::Hours(5) + Duration::Minutes(5));
  const auto result = cluster.Apply(
      SimplePlan(OptionIndex("mkt@1d"), 2, 0.1, 0.9), Context());
  EXPECT_GT(result.bid_rejected, 0);
}

TEST_F(ClusterTest, RevocationSpawnsReplacementAndDegradation) {
  Cluster cluster(provider_.get(), &options_, {});
  const size_t opt = OptionIndex("mkt@1d");  // bid 0.10 < spike 0.15
  cluster.Apply(SimplePlan(opt, 2, 0.2, 0.8), Context());

  // Step to just past the revocation at hour 5.
  Cluster::StepPerf perf{};
  int revocations = 0;
  for (int m = 1; m <= 6 * 12; ++m) {
    perf = cluster.Step(SimTime() + Duration::Minutes(5 * m), 30e3);
    revocations += perf.revocations;
    if (revocations >= 2 && perf.affected_fraction > 0.0) {
      break;
    }
  }
  EXPECT_EQ(revocations, 2);
  EXPECT_GT(cluster.total_revocations(), 0);
  EXPECT_GT(perf.affected_fraction, 0.0);
  // Replacements were launched on the warning and joined holdings.
  EXPECT_EQ(cluster.ExistingCounts()[opt], 2);
}

TEST_F(ClusterTest, StepPerfHealthyCluster) {
  Cluster cluster(provider_.get(), &options_, {});
  cluster.Apply(SimplePlan(OptionIndex("od:r3.large"), 3, 0.2, 0.8), Context());
  cluster.Step(SimTime() + Duration::Minutes(5), 30e3);  // boot
  const auto perf = cluster.Step(SimTime() + Duration::Minutes(10), 30e3);
  EXPECT_EQ(perf.affected_fraction, 0.0);
  EXPECT_FALSE(perf.saturated);
  EXPECT_GT(perf.mean_latency, Duration::Micros(100));
  EXPECT_LT(perf.mean_latency, Duration::Millis(1));
  EXPECT_GE(perf.p95_latency, perf.mean_latency);
}

TEST_F(ClusterTest, SaturationFlaggedWhenUnderprovisioned) {
  Cluster cluster(provider_.get(), &options_, {});
  // One r3.large (2 vCPU -> 40k cap) against 100k ops.
  cluster.Apply(SimplePlan(OptionIndex("od:r3.large"), 1, 0.2, 0.8),
                Context(100e3, 10.0));
  cluster.Step(SimTime() + Duration::Minutes(5), 100e3);
  const auto perf = cluster.Step(SimTime() + Duration::Minutes(10), 100e3);
  EXPECT_TRUE(perf.saturated);
}

TEST_F(ClusterTest, ZeroTrafficIsQuiet) {
  Cluster cluster(provider_.get(), &options_, {});
  cluster.Apply(SimplePlan(OptionIndex("od:r3.large"), 1, 0.2, 0.8),
                Context(0.0, 1.0));
  const auto perf = cluster.Step(SimTime() + Duration::Minutes(5), 0.0);
  EXPECT_EQ(perf.affected_fraction, 0.0);
}

TEST_F(ClusterTest, ShutdownTerminatesEverything) {
  ClusterConfig cfg;
  cfg.use_backup = true;
  Cluster cluster(provider_.get(), &options_, cfg);
  cluster.Apply(SimplePlan(OptionIndex("mkt@5d"), 4, 0.2, 0.8),
                Context(30e3, 20.0));
  EXPECT_FALSE(provider_->AliveInstances().empty());
  cluster.Shutdown();
  EXPECT_TRUE(provider_->AliveInstances().empty());
}

TEST_F(ClusterTest, MissTrafficRaisesLatency) {
  Cluster cluster(provider_.get(), &options_, {});
  SlotContext ctx = Context();
  ctx.alpha_access_fraction = 0.8;  // 20% misses to the back-end
  cluster.Apply(SimplePlan(OptionIndex("od:r3.large"), 3, 0.2, 0.6), ctx);
  cluster.Step(SimTime() + Duration::Minutes(5), 30e3);
  const auto perf = cluster.Step(SimTime() + Duration::Minutes(10), 30e3);
  // 20% of requests at ~5 ms dominates the mean.
  EXPECT_GT(perf.mean_latency, Duration::Micros(900));
  EXPECT_LT(perf.hit_fraction, 0.81);
}


// With resilience on, a replacement launch that fails inside an outage is
// retried within Step under `replacement_retry`, gated by the option's
// breaker; once the retry budget is spent, Apply re-provisions.
TEST_F(ClusterTest, ResilienceRetriesFailedReplacementsBehindOptionBreaker) {
  // One 12-hour launch outage opening ten minutes before the hour-5 spike,
  // so both warnings' and both revocations' replacement launches fail.
  FaultScenarioSpec spec;
  spec.name = "outage";
  spec.launch_outage_count = 1;
  spec.launch_outage_length = Duration::Hours(12);
  spec.window_start = SimTime() + Duration::Minutes(290);
  spec.window_end = SimTime() + Duration::Minutes(291);
  FaultInjector injector(FaultPlan::Build(1, spec));
  provider_->AttachFaultInjector(&injector);

  ClusterConfig cfg;
  cfg.replacement_retry.max_attempts = 3;
  ResilienceConfig resilience;
  resilience.enabled = true;
  resilience.breaker.open_base = Duration::Minutes(30);
  resilience.breaker.open_max = Duration::Hours(2);
  Cluster cluster(provider_.get(), &options_, cfg);
  Obs obs;
  cluster.AttachObs(&obs);
  cluster.AttachResilience(resilience);

  const size_t opt = OptionIndex("mkt@1d");  // bid 0.10 < spike 0.15
  cluster.Apply(SimplePlan(opt, 2, 0.2, 0.8), Context());
  SimTime t;
  const auto step = [&] {
    t += Duration::Minutes(1);
    cluster.Step(t, 30e3);
  };

  // Both revocations leave a pending retry; attempt 1 waits exactly
  // initial_delay.
  while (cluster.pending_replacements() < 2 &&
         t < SimTime() + Duration::Hours(6)) {
    step();
  }
  ASSERT_EQ(cluster.pending_replacements(), 2u);
  const SimTime revoked = t;
  int first_attempts = 0;
  for (const TraceEvent& ev : obs.tracer.events()) {
    if (ev.type == "retry_attempt" && ev.Field("attempt") == "1") {
      ++first_attempts;
      EXPECT_EQ(ev.time, revoked);
      EXPECT_EQ(ev.Field("delay_us"),
                std::to_string(cfg.replacement_retry.initial_delay.micros()));
    }
  }
  EXPECT_EQ(first_attempts, 2);
  ASSERT_NE(cluster.option_breaker(opt), nullptr);
  EXPECT_EQ(cluster.option_breaker(opt)->state(t), BreakerState::kClosed);

  // Nothing is retried before initial_delay has passed.
  const int failures_at_revocation = cluster.total_launch_failures();
  while (t + Duration::Minutes(1) <
         revoked + cfg.replacement_retry.initial_delay) {
    step();
  }
  EXPECT_EQ(cluster.total_launch_failures(), failures_at_revocation);

  // The first retry fails: the option's third consecutive failure trips its
  // breaker, and the second retry is deferred to the breaker's probe time
  // instead of spending its budget into the outage.
  step();
  EXPECT_EQ(cluster.total_launch_failures(), failures_at_revocation + 1);
  const CircuitBreaker& breaker = *cluster.option_breaker(opt);
  EXPECT_EQ(breaker.state(t), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_EQ(cluster.pending_replacements(), 2u);
  const SimTime probe = breaker.probe_at();
  while (t + Duration::Minutes(1) < probe) {
    step();
  }
  EXPECT_EQ(cluster.total_launch_failures(), failures_at_revocation + 1);
  step();  // first step at or past the probe time
  EXPECT_GT(cluster.total_launch_failures(), failures_at_revocation + 1);

  // Each pending replacement spends max_attempts - 1 in-step retries, then
  // is dropped with the option still short.
  while (cluster.pending_replacements() > 0 &&
         t < SimTime() + Duration::Hours(16)) {
    step();
  }
  EXPECT_EQ(cluster.pending_replacements(), 0u);
  EXPECT_EQ(cluster.total_launch_failures(),
            failures_at_revocation +
                2 * (cfg.replacement_retry.max_attempts - 1));
  EXPECT_EQ(cluster.ExistingCounts()[opt], 0);

  // Every trip is both counted and traced.
  int opened = 0;
  for (const TraceEvent& ev : obs.tracer.events()) {
    if (ev.type == "breaker_transition" && ev.Field("to") == "\"open\"") {
      ++opened;
    }
  }
  EXPECT_GE(opened, 2);
  EXPECT_EQ(obs.registry.GetCounter("resilience/breaker_trips")->value(),
            opened);

  // After the outage, slot-boundary reconciliation restores the shortfall.
  while (t < SimTime() + Duration::Hours(17)) {
    step();
  }
  cluster.Apply(SimplePlan(opt, 2, 0.2, 0.8), Context());
  EXPECT_EQ(cluster.ExistingCounts()[opt], 2);
}

}  // namespace
}  // namespace spotcache
