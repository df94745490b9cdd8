// Unit tests of the resilience building blocks: retry policy, circuit
// breaker state machine, cold-first shed planning, and config validation.

#include "src/resilience/resilience.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "src/core/experiment.h"
#include "src/resilience/retry_policy.h"

namespace spotcache {
namespace {

// --------------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicy, FirstAttemptIsExactlyInitialDelay) {
  RetryPolicyConfig cfg;
  cfg.initial_delay = Duration::Minutes(10);
  const RetryPolicy policy(cfg, 0x1234);
  EXPECT_EQ(policy.Delay(1, 1), Duration::Minutes(10));
  EXPECT_EQ(policy.Delay(999, 1), Duration::Minutes(10));
}

TEST(RetryPolicy, DelaysAreBoundedAndPure) {
  RetryPolicyConfig cfg;
  cfg.initial_delay = Duration::Seconds(10);
  cfg.max_delay = Duration::Minutes(5);
  const RetryPolicy a(cfg, 42);
  const RetryPolicy b(cfg, 42);
  for (uint64_t op = 0; op < 16; ++op) {
    for (int attempt = 1; attempt <= cfg.max_attempts; ++attempt) {
      const Duration d = a.Delay(op, attempt);
      EXPECT_GE(d, cfg.initial_delay) << "op " << op << " attempt " << attempt;
      EXPECT_LE(d, cfg.max_delay) << "op " << op << " attempt " << attempt;
      // Pure: replaying with an identical policy yields the same schedule.
      EXPECT_EQ(d, b.Delay(op, attempt));
    }
  }
}

TEST(RetryPolicy, JitterDecorrelatesOperations) {
  RetryPolicyConfig cfg;
  cfg.initial_delay = Duration::Seconds(10);
  cfg.jitter = 0.5;
  const RetryPolicy policy(cfg, 7);
  std::set<int64_t> third_delays;
  for (uint64_t op = 0; op < 32; ++op) {
    third_delays.insert(policy.Delay(op, 3).micros());
  }
  // Different ops must not retry in lockstep.
  EXPECT_GT(third_delays.size(), 8u);
}

TEST(RetryPolicy, BudgetExhaustion) {
  RetryPolicyConfig cfg;
  cfg.max_attempts = 3;
  const RetryPolicy policy(cfg, 1);
  EXPECT_FALSE(policy.Exhausted(0));
  EXPECT_FALSE(policy.Exhausted(2));
  EXPECT_TRUE(policy.Exhausted(3));
  EXPECT_TRUE(policy.Exhausted(4));
}

TEST(RetryPolicy, ExhaustedNearIntMaxDoesNotOverflow) {
  // An effectively-unbounded attempts budget must not wrap: the comparison
  // is attempts >= max_attempts, with no +1 anywhere that could overflow.
  RetryPolicyConfig cfg;
  cfg.max_attempts = std::numeric_limits<int>::max();
  const RetryPolicy policy(cfg, 9);
  EXPECT_FALSE(policy.Exhausted(0));
  EXPECT_FALSE(policy.Exhausted(std::numeric_limits<int>::max() - 1));
  EXPECT_TRUE(policy.Exhausted(std::numeric_limits<int>::max()));
}

TEST(RetryPolicy, DelayStaysBoundedAndPureForHugeAttemptNumbers) {
  // Deep retry chains (supervisors that never give up) keep sampling inside
  // [initial, max]: the decorrelated-jitter recurrence saturates at the cap
  // instead of growing or going non-finite.
  RetryPolicyConfig cfg;
  cfg.initial_delay = Duration::Millis(10);
  cfg.max_delay = Duration::Seconds(5);
  cfg.max_attempts = std::numeric_limits<int>::max();
  const RetryPolicy a(cfg, 11);
  const RetryPolicy b(cfg, 11);
  for (const int attempt : {100, 1000, 5000}) {
    const Duration d = a.Delay(/*op_id=*/3, attempt);
    EXPECT_GE(d, cfg.initial_delay) << "attempt " << attempt;
    EXPECT_LE(d, cfg.max_delay) << "attempt " << attempt;
    EXPECT_EQ(d, b.Delay(3, attempt)) << "attempt " << attempt;
  }
}

TEST(RetryPolicy, ValidateRejectsMalformedConfigs) {
  RetryPolicyConfig bad;
  bad.initial_delay = Duration::Seconds(-1);
  EXPECT_FALSE(Validate(bad).empty());
  bad = RetryPolicyConfig{};
  bad.backoff_factor = 0.5;
  EXPECT_FALSE(Validate(bad).empty());
  bad = RetryPolicyConfig{};
  bad.max_delay = Duration::Seconds(1);
  bad.initial_delay = Duration::Seconds(10);
  EXPECT_FALSE(Validate(bad).empty());
  bad = RetryPolicyConfig{};
  bad.max_attempts = 0;
  EXPECT_FALSE(Validate(bad).empty());
  bad = RetryPolicyConfig{};
  bad.jitter = 1.5;
  EXPECT_FALSE(Validate(bad).empty());
  EXPECT_TRUE(Validate(RetryPolicyConfig{}).empty());
}

// --------------------------------------------------------------------------
// CircuitBreaker

CircuitBreakerConfig FastBreaker() {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_base = Duration::Seconds(30);
  cfg.open_backoff = 2.0;
  cfg.open_max = Duration::Minutes(10);
  cfg.half_open_successes = 2;
  cfg.probe_jitter = 0.25;
  return cfg;
}

TEST(CircuitBreaker, ClosedUntilThreshold) {
  CircuitBreaker b(FastBreaker(), 1, 10);
  SimTime t;
  b.RecordFailure(t);
  b.RecordFailure(t);
  EXPECT_EQ(b.state(t), BreakerState::kClosed);
  EXPECT_TRUE(b.Allow(t));
  // A success resets the consecutive count.
  b.RecordSuccess(t);
  b.RecordFailure(t);
  b.RecordFailure(t);
  EXPECT_EQ(b.state(t), BreakerState::kClosed);
  b.RecordFailure(t);
  EXPECT_EQ(b.state(t), BreakerState::kOpen);
  EXPECT_FALSE(b.Allow(t));
  EXPECT_EQ(b.trips(), 1);
}

TEST(CircuitBreaker, HalfOpenAtProbeTimeThenCloses) {
  CircuitBreaker b(FastBreaker(), 1, 10);
  SimTime t;
  EXPECT_TRUE(b.closed());
  for (int i = 0; i < 3; ++i) {
    b.RecordFailure(t);
  }
  ASSERT_EQ(b.state(t), BreakerState::kOpen);
  EXPECT_FALSE(b.closed());
  const SimTime probe = b.probe_at();
  EXPECT_GT(probe, t);
  // Jitter keeps the window within [0.75, 1.25] of open_base.
  const double window_s = (probe - t).seconds();
  EXPECT_GE(window_s, 30.0 * 0.75 - 1e-9);
  EXPECT_LE(window_s, 30.0 * 1.25 + 1e-9);
  EXPECT_EQ(b.state(probe), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.Allow(probe));
  EXPECT_FALSE(b.closed());  // half-open admits only through Allow(now)
  b.RecordSuccess(probe);
  EXPECT_EQ(b.state(probe), BreakerState::kHalfOpen);  // needs 2 successes
  b.RecordSuccess(probe);
  EXPECT_EQ(b.state(probe), BreakerState::kClosed);
  EXPECT_TRUE(b.closed());
  EXPECT_EQ(b.trip_streak(), 0);
}

TEST(CircuitBreaker, HalfOpenFailureEscalatesWindow) {
  CircuitBreaker b(FastBreaker(), 1, 10);
  SimTime t;
  for (int i = 0; i < 3; ++i) {
    b.RecordFailure(t);
  }
  const SimTime first_probe = b.probe_at();
  const double first_window = (first_probe - t).seconds();
  b.RecordFailure(first_probe);  // failed probe: re-trip, escalated
  EXPECT_EQ(b.state(first_probe), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 2);
  EXPECT_EQ(b.trip_streak(), 2);
  const double second_window = (b.probe_at() - first_probe).seconds();
  // Escalation doubles the base; jitter bands must not overlap backwards.
  EXPECT_GT(second_window, first_window);
}

TEST(CircuitBreaker, ProbeTimesDeterministicPerSeedAndNode) {
  SimTime t;
  CircuitBreaker a(FastBreaker(), 99, 10);
  CircuitBreaker b(FastBreaker(), 99, 10);
  CircuitBreaker other_node(FastBreaker(), 99, 11);
  for (int i = 0; i < 3; ++i) {
    a.RecordFailure(t);
    b.RecordFailure(t);
    other_node.RecordFailure(t);
  }
  EXPECT_EQ(a.probe_at(), b.probe_at());
  // Different nodes de-synchronize their probes.
  EXPECT_NE(a.probe_at(), other_node.probe_at());
}

// --------------------------------------------------------------------------
// PlanShed

TEST(Admission, NoShedUnderCapacity) {
  AdmissionConfig cfg;
  cfg.backend_capacity_ops = 50'000;
  const ShedSplit s = PlanShed(cfg, 40'000, 100'000, 20'000, 20'000);
  EXPECT_DOUBLE_EQ(s.cold, 0.0);
  EXPECT_DOUBLE_EQ(s.hot, 0.0);
  EXPECT_DOUBLE_EQ(s.overall, 0.0);
}

TEST(Admission, ColdShedsBeforeHot) {
  AdmissionConfig cfg;
  cfg.backend_capacity_ops = 50'000;
  cfg.shed_budget = 1.0;  // no budget bound, isolate the ordering
  // 10k over capacity, cold pool alone can absorb it: hot untouched.
  ShedSplit s = PlanShed(cfg, 60'000, 200'000, 30'000, 20'000);
  EXPECT_GT(s.cold, 0.0);
  EXPECT_DOUBLE_EQ(s.hot, 0.0);
  EXPECT_NEAR(s.cold * 20'000, 10'000, 1.0);
  // 45k over capacity: cold (20k) saturates, hot absorbs the rest.
  s = PlanShed(cfg, 95'000, 200'000, 30'000, 20'000);
  EXPECT_DOUBLE_EQ(s.cold, 1.0);
  EXPECT_GT(s.hot, 0.0);
  EXPECT_NEAR(s.cold * 20'000 + s.hot * 30'000, 45'000, 1.0);
}

TEST(Admission, PlanShedRespectsBudget) {
  AdmissionConfig cfg;
  cfg.backend_capacity_ops = 10'000;
  cfg.shed_budget = 0.05;
  // Massive overload, but shed ops stay within budget * total.
  const ShedSplit s = PlanShed(cfg, 90'000, 100'000, 45'000, 45'000);
  const double shed_ops = s.cold * 45'000 + s.hot * 45'000;
  EXPECT_LE(shed_ops, 0.05 * 100'000 + 1.0);
  EXPECT_GT(shed_ops, 0.0);
}

// --------------------------------------------------------------------------
// Config validation

TEST(Validation, ResilienceConfigFieldsChecked) {
  EXPECT_TRUE(ValidateResilienceConfig(ResilienceConfig{}).empty());
  ResilienceConfig bad;
  bad.breaker.failure_threshold = 0;
  EXPECT_FALSE(ValidateResilienceConfig(bad).empty());
  bad = ResilienceConfig{};
  bad.admission.shed_budget = -0.1;
  EXPECT_FALSE(ValidateResilienceConfig(bad).empty());
}

TEST(Validation, WorkloadSpecRejectsNonFinite) {
  WorkloadSpec ok = PrototypeWorkload(1);
  EXPECT_TRUE(ok.Validate().empty());
  WorkloadSpec bad = ok;
  bad.peak_rate_ops = std::nan("");
  EXPECT_NE(bad.Validate().find("peak_rate_ops"), std::string::npos);
  bad = ok;
  bad.peak_working_set_gb = 0.0;
  EXPECT_FALSE(bad.Validate().empty());
  bad = ok;
  bad.read_fraction = 1.5;
  EXPECT_FALSE(bad.Validate().empty());
  bad = ok;
  bad.days = 0;
  EXPECT_FALSE(bad.Validate().empty());
  bad = ok;
  bad.value_bytes = 0;
  EXPECT_FALSE(bad.Validate().empty());
}

TEST(Validation, InstanceTypeRejectsZeroCapacity) {
  InstanceTypeSpec spec;
  spec.name = "bogus";
  spec.capacity = {0.0, 8.0, 450.0};
  EXPECT_NE(Validate(spec).find("vcpus"), std::string::npos);
  spec.capacity = {2.0, 8.0, 450.0};
  spec.od_price_per_hour = std::nan("");
  EXPECT_NE(Validate(spec).find("price"), std::string::npos);
  spec.od_price_per_hour = 0.1;
  EXPECT_TRUE(Validate(spec).empty());
}

TEST(Validation, ExperimentConfigGuardsTheRun) {
  ExperimentConfig cfg;
  cfg.workload = PrototypeWorkload(1);
  EXPECT_TRUE(ValidateExperimentConfig(cfg).empty());

  ExperimentConfig bad = cfg;
  bad.workload.peak_rate_ops = -1.0;
  EXPECT_FALSE(ValidateExperimentConfig(bad).empty());
  EXPECT_THROW(RunExperiment(bad), std::invalid_argument);

  bad = cfg;
  bad.bid_multipliers = {1.0, std::nan("")};
  EXPECT_NE(ValidateExperimentConfig(bad).find("bid_multipliers"),
            std::string::npos);

  bad = cfg;
  bad.substep = Duration();
  EXPECT_FALSE(ValidateExperimentConfig(bad).empty());

  bad = cfg;
  bad.reactive_threshold = 0.5;
  EXPECT_FALSE(ValidateExperimentConfig(bad).empty());

  bad = cfg;
  bad.cluster.replacement_retry.max_attempts = -1;
  EXPECT_NE(ValidateExperimentConfig(bad).find("replacement_retry"),
            std::string::npos);

  bad = cfg;
  bad.resilience.enabled = true;
  bad.resilience.breaker.probe_jitter = 2.0;
  EXPECT_NE(ValidateExperimentConfig(bad).find("resilience"),
            std::string::npos);
  // Disabled resilience is not validated (it is never constructed).
  bad.resilience.enabled = false;
  EXPECT_TRUE(ValidateExperimentConfig(bad).empty());
}

// --------------------------------------------------------------------------
// Introspection and validation surface (names, bad configs, counters)

TEST(CircuitBreaker, StateNames) {
  EXPECT_EQ(ToString(BreakerState::kClosed), "closed");
  EXPECT_EQ(ToString(BreakerState::kOpen), "open");
  EXPECT_EQ(ToString(BreakerState::kHalfOpen), "half_open");
}

TEST(CircuitBreaker, ValidateRejectsEachBadField) {
  const auto rejects = [](auto mutate) {
    CircuitBreakerConfig cfg;
    mutate(cfg);
    return !Validate(cfg).empty();
  };
  EXPECT_TRUE(rejects([](CircuitBreakerConfig& c) { c.failure_threshold = 0; }));
  EXPECT_TRUE(
      rejects([](CircuitBreakerConfig& c) { c.open_base = Duration::Micros(0); }));
  EXPECT_TRUE(rejects([](CircuitBreakerConfig& c) { c.open_backoff = 0.5; }));
  EXPECT_TRUE(
      rejects([](CircuitBreakerConfig& c) { c.open_max = Duration::Micros(1); }));
  EXPECT_TRUE(
      rejects([](CircuitBreakerConfig& c) { c.half_open_successes = 0; }));
  EXPECT_TRUE(rejects([](CircuitBreakerConfig& c) { c.probe_jitter = 1.0; }));
  EXPECT_EQ(Validate(CircuitBreakerConfig{}), "");
}

TEST(Admission, ValidateRejectsBadBudgetAndCapacity) {
  AdmissionConfig bad;
  bad.shed_budget = 2.0;
  EXPECT_NE(Validate(bad), "");
  bad = AdmissionConfig{};
  bad.backend_capacity_ops = 0.0;
  EXPECT_NE(Validate(bad), "");
  EXPECT_EQ(Validate(AdmissionConfig{}), "");
}

}  // namespace
}  // namespace spotcache
