#include <algorithm>

#include <gtest/gtest.h>

#include "src/cloud/spot_price_model.h"
#include "src/opt/optimizer.h"

namespace spotcache {
namespace {

class MultiClassTest : public ::testing::Test {
 protected:
  MultiClassTest()
      : markets_(MakeEvaluationMarkets(catalog_, Duration::Days(10), 7)),
        options_(BuildOptions(catalog_, markets_, {1.0, 5.0})),
        popularity_(1'000'000, 1.0) {}

  ProcurementOptimizer MakeOptimizer(OptimizerConfig cfg = {}) const {
    return ProcurementOptimizer(options_, LatencyModel(), cfg);
  }

  MultiClassInputs Inputs(const std::vector<double>& cuts, double lambda,
                          double ws_gb) const {
    MultiClassInputs in;
    in.lambda_hat = lambda;
    in.working_set_gb = ws_gb;
    in.classes = MakePopularityClasses(popularity_, cuts, 1.0, 0.5, 0.02);
    in.existing.assign(options_.size(), 0);
    in.available.assign(options_.size(), true);
    in.spot_predictions.resize(options_.size());
    for (size_t o = 0; o < options_.size(); ++o) {
      if (!options_[o].is_on_demand()) {
        in.spot_predictions[o].usable = true;
        in.spot_predictions[o].lifetime = Duration::Hours(24);
        in.spot_predictions[o].avg_price = options_[o].bid * 0.2;
      }
    }
    return in;
  }

  InstanceCatalog catalog_ = InstanceCatalog::Default();
  std::vector<SpotMarket> markets_;
  std::vector<ProcurementOption> options_;
  ZipfPopularity popularity_;
};

TEST_F(MultiClassTest, ClassesPartitionWorkingSetAndAccesses) {
  const auto classes =
      MakePopularityClasses(popularity_, {0.6, 0.9}, 1.0, 0.5, 0.02);
  ASSERT_EQ(classes.size(), 3u);
  double ws = 0.0;
  double access = 0.0;
  for (const auto& band : classes) {
    EXPECT_GT(band.ws_fraction, 0.0);
    EXPECT_GE(band.access_fraction, 0.0);
    ws += band.ws_fraction;
    access += band.access_fraction;
  }
  EXPECT_NEAR(ws, 1.0, 1e-9);
  EXPECT_NEAR(access, 1.0, 1e-6);
  // Hotter bands are denser and carry higher penalties.
  EXPECT_GT(classes[0].access_fraction / classes[0].ws_fraction,
            classes[2].access_fraction / classes[2].ws_fraction);
  EXPECT_GT(classes[0].loss_penalty, classes[2].loss_penalty);
  EXPECT_NEAR(classes[0].loss_penalty, 0.5, 1e-9);
}

TEST_F(MultiClassTest, TwoBandsMatchHotColdSolveExactly) {
  // Hot/cold is the K = 2 band LP: the same slot posed as two bands with
  // penalties beta1/beta2 yields the same plan, bit for bit.
  const MultiClassInputs cut = Inputs({0.9}, 320e3, 60.0);
  ASSERT_EQ(cut.classes.size(), 2u);
  SlotInputs base_in;
  static_cast<SlotState&>(base_in) = cut;
  base_in.hot_ws_fraction = cut.classes[0].ws_fraction;
  base_in.hot_access_fraction = cut.classes[0].access_fraction;
  base_in.alpha_access_fraction = 1.0;

  const OptimizerConfig cfg;
  MultiClassInputs in;
  static_cast<SlotState&>(in) = base_in;
  in.classes.resize(2);
  in.classes[0].ws_fraction = base_in.hot_ws_fraction;
  in.classes[0].access_fraction = base_in.hot_access_fraction;
  in.classes[0].loss_penalty = cfg.beta1;
  in.classes[1].ws_fraction =
      std::max(0.0, cfg.alpha - base_in.hot_ws_fraction);
  in.classes[1].access_fraction = std::max(
      0.0, base_in.alpha_access_fraction - base_in.hot_access_fraction);
  in.classes[1].loss_penalty = cfg.beta2;

  const ProcurementOptimizer opt = MakeOptimizer(cfg);
  const AllocationPlan base = opt.Solve(base_in);
  const MultiClassPlan bands = opt.SolveClasses(in);
  ASSERT_TRUE(base.feasible);
  ASSERT_TRUE(bands.feasible);
  EXPECT_EQ(bands.lp_objective, base.lp_objective);
  ASSERT_EQ(bands.items.size(), base.items.size());
  ASSERT_EQ(bands.class_fractions.size(), base.items.size());
  for (size_t i = 0; i < base.items.size(); ++i) {
    EXPECT_EQ(bands.items[i].option, base.items[i].option);
    EXPECT_EQ(bands.items[i].count, base.items[i].count);
    ASSERT_EQ(bands.class_fractions[i].size(), 2u);
    EXPECT_EQ(bands.class_fractions[i][0], base.items[i].x);
    EXPECT_EQ(bands.class_fractions[i][1], base.items[i].y);
  }
}

TEST_F(MultiClassTest, ThreeBandPlanMeetsCapacityAndThroughput) {
  // Per option: n*ram >= sum g_c and n*lambda >= sum density_c * g_c.
  const MultiClassInputs in = Inputs({0.6, 0.9}, 320e3, 60.0);
  ASSERT_EQ(in.classes.size(), 3u);
  const ProcurementOptimizer opt = MakeOptimizer();
  const MultiClassPlan plan = opt.SolveClasses(in);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.class_fractions.size(), plan.items.size());
  double alpha_access = 0.0;
  for (const auto& band : in.classes) {
    alpha_access += band.access_fraction;
  }
  alpha_access = std::min(1.0, alpha_access);
  for (size_t i = 0; i < plan.items.size(); ++i) {
    const AllocationItem& item = plan.items[i];
    const std::vector<double>& fractions = plan.class_fractions[i];
    ASSERT_EQ(fractions.size(), in.classes.size());
    double data = 0.0;
    double traffic = 0.0;
    for (size_t c = 0; c < fractions.size(); ++c) {
      data += fractions[c];
      traffic += fractions[c] / in.classes[c].ws_fraction *
                 in.classes[c].access_fraction;
    }
    EXPECT_LE(data * in.working_set_gb,
              item.count * opt.UsableRamGb(item.option) + 1e-6)
        << options_[item.option].label;
    EXPECT_LE(traffic * in.lambda_hat,
              item.count * opt.MaxRatePerInstance(item.option, alpha_access) +
                  1e-6)
        << options_[item.option].label;
    // x is the hottest band, y the rest.
    EXPECT_EQ(item.x, fractions[0]);
    EXPECT_NEAR(item.y, fractions[1] + fractions[2], 1e-12);
  }
}

TEST_F(MultiClassTest, MoreClassesNeverCostMore) {
  // Finer partitions only add placement freedom... with identical per-band
  // penalties the LP optimum is monotone; with interpolated penalties the
  // cheaper cold tail usually wins. Compare 2 vs 4 classes.
  const ProcurementOptimizer opt = MakeOptimizer();
  const MultiClassPlan two = opt.SolveClasses(Inputs({0.9}, 320e3, 60.0));
  const MultiClassPlan four =
      opt.SolveClasses(Inputs({0.5, 0.75, 0.9}, 320e3, 60.0));
  ASSERT_TRUE(two.feasible);
  ASSERT_TRUE(four.feasible);
  EXPECT_LE(four.lp_objective, two.lp_objective * 1.02);
}

TEST_F(MultiClassTest, PlanCoversEveryClass) {
  const MultiClassInputs in = Inputs({0.6, 0.9}, 320e3, 60.0);
  const MultiClassPlan plan = MakeOptimizer().SolveClasses(in);
  ASSERT_TRUE(plan.feasible);
  std::vector<double> placed(in.classes.size(), 0.0);
  for (const auto& fractions : plan.class_fractions) {
    for (size_t c = 0; c < fractions.size(); ++c) {
      placed[c] += fractions[c];
    }
  }
  for (size_t c = 0; c < in.classes.size(); ++c) {
    EXPECT_NEAR(placed[c], in.classes[c].ws_fraction, 1e-6) << "class " << c;
  }
  EXPECT_GT(plan.TotalInstances(), 0);
}

TEST_F(MultiClassTest, ZetaFloorHolds) {
  OptimizerConfig cfg;
  cfg.zeta = 0.3;
  const MultiClassPlan plan =
      MakeOptimizer(cfg).SolveClasses(Inputs({0.6, 0.9}, 320e3, 60.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_GE(plan.OnDemandDataFraction(options_), 0.3 - 1e-6);
}

TEST_F(MultiClassTest, SeparationPinsHottestBandToOnDemand) {
  OptimizerConfig cfg;
  cfg.mixing = MixingPolicy::kSeparate;
  const MultiClassPlan plan =
      MakeOptimizer(cfg).SolveClasses(Inputs({0.6, 0.9}, 320e3, 60.0));
  ASSERT_TRUE(plan.feasible);
  for (size_t i = 0; i < plan.items.size(); ++i) {
    const bool od = options_[plan.items[i].option].is_on_demand();
    const std::vector<double>& fractions = plan.class_fractions[i];
    for (size_t c = 0; c < fractions.size(); ++c) {
      if (od == (c == 0)) {
        continue;
      }
      EXPECT_LT(fractions[c], 1e-9)
          << options_[plan.items[i].option].label << " class " << c;
    }
  }
}

TEST_F(MultiClassTest, EmptyClassesRejected) {
  MultiClassInputs in = Inputs({0.9}, 320e3, 60.0);
  in.classes.clear();
  EXPECT_FALSE(MakeOptimizer().SolveClasses(in).feasible);
}

}  // namespace
}  // namespace spotcache
