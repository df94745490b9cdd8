// Load-generator correctness (ISSUE 6 satellites):
//
//   * statistical validation of the O(1) Zipf sampler: empirical rank
//     frequencies vs the analytic ZipfPopularity pmf under chi-square and
//     total-variation tolerances across several skews;
//   * seed-pinned determinism: the op stream is a pure function of
//     (config, seed) — same seed replays byte-identically (golden digest),
//     different seeds diverge;
//   * arrival-schedule properties: Poisson rate, diurnal modulation, flash
//     phases, hot-shift windows;
//   * a loopback soak of the open-loop engine against a real NetServer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/loadgen/engine.h"
#include "src/loadgen/key_sampler.h"
#include "src/loadgen/op_stream.h"
#include "src/loadgen/schedule.h"
#include "src/net/server.h"
#include "src/net/server_core.h"
#include "src/util/rng.h"
#include "src/workload/zipf.h"

namespace spotcache::loadgen {
namespace {

// ---------------------------------------------------------------------------
// ZipfianGenerator: statistical agreement with the analytic pmf.

struct FitStats {
  double chi2_per_sample = 0.0;  // sum (f_emp - p)^2 / p  (chi2 / N)
  double total_variation = 0.0;  // 0.5 * sum |f_emp - p|
};

FitStats FitAgainstAnalytic(const std::vector<uint64_t>& counts,
                            uint64_t samples, const ZipfPopularity& pop) {
  FitStats fit;
  for (uint64_t r = 0; r < counts.size(); ++r) {
    const double p = pop.MassAt(r);
    const double f = static_cast<double>(counts[r]) / samples;
    fit.chi2_per_sample += (f - p) * (f - p) / p;
    fit.total_variation += 0.5 * std::abs(f - p);
  }
  return fit;
}

class ZipfianGeneratorPmf : public ::testing::TestWithParam<double> {};

TEST_P(ZipfianGeneratorPmf, EmpiricalFrequenciesMatchAnalyticPmf) {
  const double theta = GetParam();
  constexpr uint64_t kKeys = 100;
  constexpr uint64_t kSamples = 200'000;

  const ZipfianGenerator zipf(kKeys, theta);
  Rng rng(0xfa57'21f0 + static_cast<uint64_t>(theta * 1000));
  std::vector<uint64_t> counts(kKeys, 0);
  for (uint64_t i = 0; i < kSamples; ++i) {
    const uint64_t r = zipf.Sample(rng);
    ASSERT_LT(r, kKeys);
    ++counts[r];
  }

  const ZipfPopularity pop(kKeys, theta);
  const FitStats fit = FitAgainstAnalytic(counts, kSamples, pop);
  // An exact sampler would score chi2/N ~ df/N ~ 5e-4 and TV ~ 8e-3 at this
  // sample count; the tolerances leave room for the closed form's small
  // systematic bias (it is an approximation, not an exact inverse-CDF).
  EXPECT_LT(fit.chi2_per_sample, 0.01) << "theta=" << theta;
  EXPECT_LT(fit.total_variation, 0.05) << "theta=" << theta;

  // Rank 0 must dominate once there is real skew.
  if (theta >= 0.5) {
    EXPECT_GT(counts[0], counts[kKeys - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfianGeneratorPmf,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9, 0.99));

TEST(KeySamplerTest, HighSkewMatchesAnalyticPmf) {
  // At theta >= 1 the closed form's known head distortion is documented at
  // ~20% on rank 0 — hence the looser TV tolerance.
  constexpr uint64_t kKeys = 100;
  constexpr uint64_t kSamples = 200'000;
  KeySampler sampler({kKeys, 1.2, false});
  Rng rng(77);
  std::vector<uint64_t> counts(kKeys, 0);
  for (uint64_t i = 0; i < kSamples; ++i) {
    ++counts[sampler.SampleRank(rng)];
  }
  const FitStats fit =
      FitAgainstAnalytic(counts, kSamples, ZipfPopularity(kKeys, 1.2));
  EXPECT_LT(fit.total_variation, 0.12);
  EXPECT_GT(counts[0], counts[10]);
}

TEST(ZipfianGeneratorTest, SameSeedSameSequence) {
  const ZipfianGenerator a(50'000, 0.99);
  const ZipfianGenerator b(50'000, 0.99);
  Rng ra(31337);
  Rng rb(31337);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(a.Sample(ra), b.Sample(rb)) << i;
  }
}

TEST(KeySamplerTest, HotShiftRotatesAndScrambleStaysInRange) {
  KeySampler plain({1000, 0.9, false});
  EXPECT_EQ(plain.KeyFor(7, 0), 7u);
  EXPECT_EQ(plain.KeyFor(7, 10), 17u);
  EXPECT_EQ(plain.KeyFor(995, 10), 5u);  // wraps mod n

  KeySampler scrambled({1000, 0.9, true});
  // Deterministic, in range, and actually scattered away from identity.
  uint64_t moved = 0;
  for (uint64_t r = 0; r < 100; ++r) {
    const uint64_t k = scrambled.KeyFor(r, 0);
    EXPECT_LT(k, 1000u);
    EXPECT_EQ(k, scrambled.KeyFor(r, 0));
    if (k != r) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 90u);
}

TEST(KeyFileTest, WriteLoadRoundTrip) {
  KeySampler sampler({500, 0.8, false});
  Rng rng(5);
  const std::vector<uint32_t> ranks = GenerateRanks(sampler, 4096, rng);
  const std::string path = ::testing::TempDir() + "/loadgen_keys.bin";
  ASSERT_TRUE(WriteKeyFile(path, ranks));
  const auto loaded = LoadKeyFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, ranks);

  EXPECT_FALSE(LoadKeyFile(path + ".missing").has_value());
}

// ---------------------------------------------------------------------------
// Arrival schedules.

std::vector<double> WalkArrivals(const ArrivalSchedule& schedule,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<double> arrivals;
  double t = 0.0;
  while (auto next = schedule.NextArrival(t, rng)) {
    t = *next;
    arrivals.push_back(t);
  }
  return arrivals;
}

TEST(ScheduleTest, PoissonEmpiricalRateMatchesConfigured) {
  ScheduleConfig config;
  config.base_rate_rps = 2000.0;
  config.duration_s = 20.0;
  const ArrivalSchedule schedule(config);
  const auto arrivals = WalkArrivals(schedule, 11);

  const double expected = config.base_rate_rps * config.duration_s;
  const double sigma = std::sqrt(expected);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), expected, 5 * sigma);
  EXPECT_NEAR(schedule.ExpectedArrivals(), expected, 1.0);

  for (size_t i = 1; i < arrivals.size(); ++i) {
    ASSERT_GT(arrivals[i], arrivals[i - 1]);
  }
  EXPECT_LE(arrivals.back(), config.duration_s);
}

TEST(ScheduleTest, DiurnalCrestOutpacesTrough) {
  ScheduleConfig config;
  config.kind = ScheduleConfig::Kind::kDiurnal;
  config.base_rate_rps = 2000.0;
  config.duration_s = 40.0;
  config.diurnal_period_s = 40.0;  // one full "day"
  config.diurnal_amplitude = 0.8;
  const ArrivalSchedule schedule(config);

  // rate(t) = base * (1 + A sin(2 pi t / T)): crest quarter is [0, T/2),
  // trough quarter [T/2, T).
  EXPECT_NEAR(schedule.RateAt(10.0), 2000.0 * 1.8, 1e-6);
  EXPECT_NEAR(schedule.RateAt(30.0), 2000.0 * 0.2, 1e-6);
  EXPECT_NEAR(schedule.PeakRate(), 2000.0 * 1.8, 1e-6);

  const auto arrivals = WalkArrivals(schedule, 12);
  uint64_t crest = 0;
  uint64_t trough = 0;
  for (double t : arrivals) {
    if (t < 20.0) {
      ++crest;
    } else {
      ++trough;
    }
  }
  // Analytic split: crest carries (1 + 2A/pi) / 2 ~ 75% of the volume.
  EXPECT_GT(crest, trough * 2);
  EXPECT_NEAR(schedule.ExpectedArrivals(), 2000.0 * 40.0, 2.0);
}

TEST(ScheduleTest, FlashPhaseMultipliesArrivalsAndCarriesHotShift) {
  ScheduleConfig config;
  config.base_rate_rps = 1000.0;
  config.duration_s = 12.0;
  Phase flash;
  flash.start_s = 4.0;
  flash.duration_s = 4.0;
  flash.rate_multiplier = 3.0;
  flash.hot_shift = 777;
  config.phases.push_back(flash);
  const ArrivalSchedule schedule(config);

  EXPECT_EQ(schedule.PhaseIndexAt(3.9), -1);
  EXPECT_EQ(schedule.PhaseIndexAt(4.0), 0);
  EXPECT_EQ(schedule.PhaseIndexAt(7.999), 0);
  EXPECT_EQ(schedule.PhaseIndexAt(8.001), -1);
  EXPECT_EQ(schedule.HotShiftAt(5.0), 777u);
  EXPECT_EQ(schedule.HotShiftAt(9.0), 0u);
  EXPECT_NEAR(schedule.RateAt(5.0), 3000.0, 1e-6);
  EXPECT_NEAR(schedule.PeakRate(), 3000.0, 1e-6);

  const auto arrivals = WalkArrivals(schedule, 13);
  uint64_t in_phase = 0;
  uint64_t baseline_window = 0;  // same-width window before the phase
  for (double t : arrivals) {
    if (t >= 4.0 && t < 8.0) {
      ++in_phase;
    } else if (t < 4.0) {
      ++baseline_window;
    }
  }
  const double ratio =
      static_cast<double>(in_phase) / static_cast<double>(baseline_window);
  EXPECT_NEAR(ratio, 3.0, 0.3);
}

// ---------------------------------------------------------------------------
// Op streams: determinism + semantics.

OpStreamConfig PinnedConfig() {
  OpStreamConfig config;
  config.seed = 1234;
  config.schedule.base_rate_rps = 1000.0;
  config.schedule.duration_s = 2.0;
  Phase flash;
  flash.start_s = 0.8;
  flash.duration_s = 0.4;
  flash.rate_multiplier = 3.0;
  flash.hot_shift = 123;
  config.schedule.phases.push_back(flash);
  config.keys.num_keys = 1000;
  config.keys.theta = 0.9;
  config.keys.scramble = true;
  config.mix.get_ratio = 0.8;
  config.mix.value_bytes = 64;
  config.mix.value_bytes_max = 128;
  return config;
}

TEST(OpStreamTest, SameSeedIsByteIdenticalAndDigestIsPinned) {
  const auto ops_a = GenerateOps(PinnedConfig(), 100'000);
  const auto ops_b = GenerateOps(PinnedConfig(), 100'000);
  ASSERT_FALSE(ops_a.empty());
  EXPECT_EQ(SerializeOps(ops_a), SerializeOps(ops_b));
  EXPECT_EQ(OpStreamDigest(ops_a), OpStreamDigest(ops_b));

  // Golden digest: pins the full (arrival, key, mix) stream across refactors.
  // If a deliberate generator change lands, re-pin with the printed value.
  EXPECT_EQ(OpStreamDigest(ops_a), UINT64_C(0x7d9bd2404f537830))
      << "actual digest: 0x" << std::hex << OpStreamDigest(ops_a);

  OpStreamConfig other = PinnedConfig();
  other.seed = 1235;
  EXPECT_NE(OpStreamDigest(GenerateOps(other, 100'000)),
            OpStreamDigest(ops_a));
}

TEST(OpStreamTest, StreamSemanticsHold) {
  const OpStreamConfig config = PinnedConfig();
  const auto ops = GenerateOps(config, 100'000);
  const ArrivalSchedule schedule(config.schedule);

  const Phase& flash = config.schedule.phases[0];
  uint64_t gets = 0;
  int64_t prev_us = -1;
  for (const Op& op : ops) {
    // Arrivals are strictly increasing in continuous time; two can still
    // round to the same microsecond.
    ASSERT_GE(op.send_us, prev_us);
    prev_us = op.send_us;
    ASSERT_LT(op.key, config.keys.num_keys);
    const double t_s = static_cast<double>(op.send_us) * 1e-6;
    // Microsecond rounding can move an op across a phase edge; only check
    // ops clearly away from the boundaries.
    if (std::abs(t_s - flash.start_s) > 2e-6 &&
        std::abs(t_s - (flash.start_s + flash.duration_s)) > 2e-6) {
      ASSERT_EQ(op.phase, static_cast<int8_t>(schedule.PhaseIndexAt(t_s)));
    }
    if (op.kind == OpKind::kGet) {
      ++gets;
      ASSERT_EQ(op.value_len, 0u);
    } else {
      ASSERT_GE(op.value_len, config.mix.value_bytes);
      ASSERT_LE(op.value_len, config.mix.value_bytes_max);
    }
  }
  const double get_fraction =
      static_cast<double>(gets) / static_cast<double>(ops.size());
  EXPECT_NEAR(get_fraction, config.mix.get_ratio, 0.03);
}

TEST(OpStreamTest, KeyFileDrivesKeysAndHotShiftRotates) {
  OpStreamConfig config;
  config.seed = 9;
  config.schedule.base_rate_rps = 500.0;
  config.schedule.duration_s = 3.0;
  Phase flash;
  flash.start_s = 1.0;
  flash.duration_s = 1.0;
  flash.hot_shift = 42;
  config.schedule.phases.push_back(flash);
  config.keys.num_keys = 100;
  config.keys.scramble = false;
  config.key_ranks = {0, 1, 2};  // consumed cyclically

  const auto ops = GenerateOps(config, 10'000);
  ASSERT_GT(ops.size(), 100u);
  uint64_t shifted = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const uint64_t rank = config.key_ranks[i % config.key_ranks.size()];
    if (ops[i].phase < 0) {
      ASSERT_EQ(ops[i].key, rank) << i;
    } else {
      ASSERT_EQ(ops[i].key, rank + 42) << i;
      ++shifted;
    }
  }
  EXPECT_GT(shifted, 0u);
}

// ---------------------------------------------------------------------------
// The open-loop engine against a real NetServer over loopback.

TEST(EngineTest, LoopbackSoakCompletesEverythingCleanly) {
  net::NetServerConfig server_config;  // ephemeral loopback port
  net::ServerCore core(net::ServerCoreConfig{});
  net::NetServer server(server_config, &core);
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  EngineConfig config;
  config.port = server.port();
  config.connections = 4;
  config.stream.seed = 7;
  config.stream.keys.num_keys = 2'000;
  config.stream.keys.theta = 0.99;
  config.stream.mix.get_ratio = 0.8;  // exercise sets too
  config.stream.mix.value_bytes = 64;
  config.stream.schedule.base_rate_rps = 2000.0;
  config.stream.schedule.duration_s = 1.0;
  Phase flash;
  flash.start_s = 0.4;
  flash.duration_s = 0.3;
  flash.rate_multiplier = 3.0;
  flash.hot_shift = 1'000;
  config.stream.schedule.phases.push_back(flash);

  const LoadGenResult result = RunOpenLoop(config);
  server.Stop();
  loop.join();

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.failed_conns, 0u);
  EXPECT_EQ(result.abandoned, 0u);
  EXPECT_GT(result.scheduled, 1'000u);
  EXPECT_EQ(result.completed, result.scheduled);
  // Prefill stored every key, so gets all hit.
  EXPECT_EQ(result.get_misses, 0u);
  // Every completed non-error request landed in the latency distribution.
  EXPECT_EQ(result.latency.count, result.completed);
  EXPECT_GT(result.latency.p50_us, 0.0);
  EXPECT_GE(result.latency.p999_us, result.latency.p50_us);

  // Segment accounting: [0] = baseline, [1] = the flash phase; totals add up.
  ASSERT_EQ(result.segments.size(), 2u);
  EXPECT_EQ(result.segments[0].label, "baseline");
  EXPECT_EQ(result.segments[1].label, "phase0");
  uint64_t seg_completed = 0;
  for (const SegmentStats& seg : result.segments) {
    seg_completed += seg.completed;
  }
  EXPECT_EQ(seg_completed, result.completed);
  EXPECT_GT(result.segments[1].offered_rps,
            result.segments[0].offered_rps * 2.0);

  uint64_t per_second = 0;
  for (uint64_t c : result.per_second_completed) {
    per_second += c;
  }
  EXPECT_EQ(per_second, result.completed);

  // Loopback at this trivial rate must achieve what it offers.
  EXPECT_GT(result.achieved_rps, 0.95 * result.offered_rps);
}

TEST(EngineTest, ConnectFailureReportsCleanly) {
  EngineConfig config;
  config.port = 1;  // nothing listens on tcp/1
  config.connections = 2;
  config.connect_timeout_ms = 200;
  config.stream.schedule.base_rate_rps = 100.0;
  config.stream.schedule.duration_s = 0.2;
  const LoadGenResult result = RunOpenLoop(config);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace spotcache::loadgen
