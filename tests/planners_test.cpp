#include <gtest/gtest.h>

#include <cmath>

#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/planners/ensemble.hpp"
#include "cvsafe/planners/expert.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/planners/training.hpp"
#include "cvsafe/util/contracts.hpp"

namespace cvsafe::planners {
namespace {

const vehicle::VehicleLimits kEgo{0.0, 15.0, -6.0, 3.0};
const vehicle::VehicleLimits kC1{2.0, 15.0, -3.0, 3.0};

std::shared_ptr<const scenario::LeftTurnScenario> make_scenario() {
  return std::make_shared<const scenario::LeftTurnScenario>(
      scenario::LeftTurnGeometry{}, kEgo, kC1, 0.05);
}

TEST(ExpertParams, StylesDiffer) {
  EXPECT_GT(ExpertParams::conservative().go_margin,
            ExpertParams::aggressive().go_margin);
  EXPECT_EQ(expert_params_for(PlannerStyle::kConservative).go_margin,
            ExpertParams::conservative().go_margin);
  EXPECT_STREQ(planner_style_name(PlannerStyle::kConservative),
               "conservative");
  EXPECT_STREQ(planner_style_name(PlannerStyle::kAggressive), "aggressive");
}

TEST(Expert, GoesWhenWindowFarAway) {
  const ExpertPolicy expert(make_scenario(), ExpertParams::conservative());
  // Window opens in 30 s: plenty of time to clear.
  EXPECT_EQ(expert.act(0.0, -30.0, 8.0, util::Interval{30.0, 35.0}),
            kEgo.a_max);
}

TEST(Expert, YieldsWhenConflictImminent) {
  const ExpertPolicy expert(make_scenario(), ExpertParams::conservative());
  // Window opens in 2 s; clearing takes ~4 s from -30 m: must yield.
  const double a = expert.act(0.0, -30.0, 8.0, util::Interval{2.0, 6.0});
  EXPECT_LT(a, 0.0);
}

TEST(Expert, FullThrottleOncePastFrontLine) {
  const ExpertPolicy expert(make_scenario(), ExpertParams::conservative());
  EXPECT_EQ(expert.act(0.0, 6.0, 8.0, util::Interval{0.0, 5.0}), kEgo.a_max);
}

TEST(Expert, ResumesAfterWindowPasses) {
  const ExpertPolicy expert(make_scenario(), ExpertParams::conservative());
  EXPECT_EQ(expert.act(10.0, -1.0, 0.0, util::Interval{2.0, 6.0}),
            kEgo.a_max);
  EXPECT_EQ(expert.act(0.0, -1.0, 0.0, util::Interval::empty_interval()),
            kEgo.a_max);
}

TEST(Expert, WaitsWhenStoppedAtLine) {
  const ExpertPolicy expert(make_scenario(), ExpertParams::conservative());
  const double a = expert.act(1.0, 4.4, 0.0, util::Interval{1.5, 5.0});
  EXPECT_EQ(a, 0.0);
}

TEST(Expert, AggressiveGoesWhereConservativeYields) {
  const auto scn = make_scenario();
  const ExpertPolicy cons(scn, ExpertParams::conservative());
  const ExpertPolicy aggr(scn, ExpertParams::aggressive());
  // A marginal situation: clearing time roughly equals the window start.
  int diverge = 0;
  for (double w_lo = 2.0; w_lo <= 7.0; w_lo += 0.25) {
    const util::Interval tau1{w_lo, w_lo + 4.0};
    const double ac = cons.act(0.0, -30.0, 8.0, tau1);
    const double aa = aggr.act(0.0, -30.0, 8.0, tau1);
    if (aa > ac) ++diverge;
    EXPECT_GE(aa, ac);  // aggressive never brakes harder than conservative
  }
  EXPECT_GT(diverge, 3);
}

TEST(InputEncoding, NormalizesAndClamps) {
  const InputEncoding enc;
  const auto x = enc.encode(10.0, -15.0, 7.5, util::Interval{12.0, 14.0});
  ASSERT_EQ(x.size(), InputEncoding::dim());
  EXPECT_NEAR(x[0], -0.5, 1e-12);
  EXPECT_NEAR(x[1], 0.5, 1e-12);
  EXPECT_NEAR(x[2], 0.2, 1e-12);  // (12-10)/10
  EXPECT_NEAR(x[3], 0.4, 1e-12);
  // Far future clamps at w_max.
  const auto far = enc.encode(0.0, 0.0, 0.0, util::Interval{100.0, 200.0});
  EXPECT_NEAR(far[2], 3.0, 1e-12);
  EXPECT_NEAR(far[3], 3.0, 1e-12);
}

TEST(InputEncoding, EmptyAndPassedWindowsUseSentinel) {
  const InputEncoding enc;
  const auto empty = enc.encode(0.0, 0.0, 0.0,
                                util::Interval::empty_interval());
  EXPECT_NEAR(empty[2], -0.2, 1e-12);
  EXPECT_NEAR(empty[3], -0.2, 1e-12);
  const auto passed = enc.encode(10.0, 0.0, 0.0, util::Interval{2.0, 6.0});
  EXPECT_EQ(passed[2], empty[2]);
  EXPECT_EQ(passed[3], empty[3]);
}

TEST(Dataset, GenerationShapesAndLabelRange) {
  const auto scn = make_scenario();
  const ExpertPolicy expert(scn, ExpertParams::conservative());
  util::Rng rng(1);
  const auto data =
      generate_imitation_dataset(*scn, expert, InputEncoding{}, 500, rng);
  EXPECT_EQ(data.size(), 500u);
  EXPECT_EQ(data.inputs.cols(), InputEncoding::dim());
  EXPECT_EQ(data.targets.cols(), 1u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_GE(data.targets(i, 0), kEgo.a_min);
    EXPECT_LE(data.targets(i, 0), kEgo.a_max);
  }
}

TEST(Training, ImitationLearnsTheExpert) {
  const auto scn = make_scenario();
  TrainingOptions options;
  options.num_samples = 6000;
  options.epochs = 30;
  const nn::Mlp net =
      train_planner_network(*scn, PlannerStyle::kConservative, options);

  // Agreement on fresh states: the sign/magnitude of the command must
  // track the expert closely.
  const ExpertPolicy expert(scn, ExpertParams::conservative());
  const InputEncoding enc;
  nn::Workspace ws;
  util::Rng rng(99);
  int agree = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const double p0 = rng.uniform(-35, 15);
    const double v0 = rng.uniform(0, 15);
    const double lo = rng.uniform(0, 10);
    const util::Interval tau1{lo, lo + rng.uniform(0.5, 6.0)};
    const double label = expert.act(0.0, p0, v0, tau1);
    const double pred =
        net.predict_scalar(enc.encode(0.0, p0, v0, tau1), ws);
    // "Agreement": same accelerate-vs-brake decision or close value.
    if ((label > 1.0) == (pred > 1.0) || std::abs(label - pred) < 1.5) {
      ++agree;
    }
  }
  EXPECT_GT(agree, n * 85 / 100);
}

TEST(NnPlanner, WrapsNetworkAsPlanner) {
  const auto scn = make_scenario();
  TrainingOptions options;
  options.num_samples = 2000;
  options.epochs = 10;
  auto net = std::make_shared<const nn::Mlp>(
      train_planner_network(*scn, PlannerStyle::kConservative, options));
  NnPlanner planner(net, InputEncoding{}, "test_nn");
  EXPECT_EQ(planner.name(), "test_nn");

  scenario::LeftTurnWorld world;
  world.t = 0.0;
  world.ego = {-30.0, 8.0};
  world.tau1_nn = util::Interval{30.0, 34.0};
  const double a = planner.plan(world);
  EXPECT_TRUE(std::isfinite(a));
}

TEST(NnPlanner, RejectsNetworksThatDoNotFitKappaN) {
  // kappa_n reads InputEncoding::dim() inputs and writes one output; a
  // network of another shape would read or write past its buffers.
  util::ScopedContractMode mode(util::ContractMode::kThrow);
  util::Rng rng(3);
  const auto six_in =
      std::make_shared<const nn::Mlp>(nn::MlpSpec{{6, 24, 1}}, rng);
  const auto two_out =
      std::make_shared<const nn::Mlp>(nn::MlpSpec{{4, 24, 2}}, rng);
  const auto fits =
      std::make_shared<const nn::Mlp>(nn::MlpSpec{{4, 24, 1}}, rng);
  for (const auto& net : {std::shared_ptr<const nn::Mlp>{}, six_in, two_out}) {
    EXPECT_THROW(NnPlanner(net, InputEncoding{}, "nn"),
                 util::ContractViolation);
    EXPECT_THROW(EnsemblePlanner({fits, net}, InputEncoding{}, "ensemble"),
                 util::ContractViolation);
  }
  EXPECT_THROW(EnsemblePlanner({}, InputEncoding{}, "ensemble"),
               util::ContractViolation);
  EXPECT_NO_THROW(NnPlanner(fits, InputEncoding{}, "nn"));
  EXPECT_NO_THROW(EnsemblePlanner({fits}, InputEncoding{}, "ensemble"));
}

TEST(Training, CachedNetworkIsReusedInMemory) {
  const auto scn = make_scenario();
  TrainingOptions options;
  options.num_samples = 1500;
  options.epochs = 5;
  options.seed = 424242;  // distinct cache key for this test
  const auto a = cached_planner_network(*scn, PlannerStyle::kConservative,
                                        options);
  const auto b = cached_planner_network(*scn, PlannerStyle::kConservative,
                                        options);
  EXPECT_EQ(a.get(), b.get());  // same shared instance
}

TEST(Training, OnPolicyDatasetVisitsScenarioStates) {
  const auto scn = make_scenario();
  TrainingOptions options;
  options.num_samples = 2000;
  options.epochs = 8;
  util::Rng rng(7);
  const nn::Mlp net =
      train_planner_network(*scn, PlannerStyle::kConservative, options);
  const ExpertPolicy expert(scn, ExpertParams::conservative());
  const nn::Dataset visited = generate_onpolicy_dataset(
      *scn, net, expert, InputEncoding{}, /*episodes=*/5, rng);
  EXPECT_GT(visited.size(), 50u);
  EXPECT_EQ(visited.inputs.cols(), InputEncoding::dim());
  // Labels stay within the actuation range.
  for (std::size_t i = 0; i < visited.size(); ++i) {
    EXPECT_GE(visited.targets(i, 0), kEgo.a_min);
    EXPECT_LE(visited.targets(i, 0), kEgo.a_max);
  }
}

TEST(Training, OnPolicyRoundsDoNotDegradeImitation) {
  const auto scn = make_scenario();
  TrainingOptions base;
  base.num_samples = 4000;
  base.epochs = 20;
  base.seed = 777;
  TrainingOptions dagger = base;
  dagger.onpolicy_rounds = 1;
  dagger.onpolicy_episodes_per_round = 10;
  dagger.onpolicy_epochs = 5;

  const nn::Mlp plain =
      train_planner_network(*scn, PlannerStyle::kConservative, base);
  const nn::Mlp refined =
      train_planner_network(*scn, PlannerStyle::kConservative, dagger);

  const ExpertPolicy expert(scn, ExpertParams::conservative());
  const InputEncoding enc;
  util::Rng rng(55);
  const nn::Dataset probe =
      generate_imitation_dataset(*scn, expert, enc, 1500, rng);
  const double err_plain = nn::evaluate(plain, probe);
  const double err_refined = nn::evaluate(refined, probe);
  // Fine-tuning on aggregated data must not blow up the fit.
  EXPECT_LT(err_refined, err_plain * 2.5 + 0.05);
}

TEST(Training, StylesProduceDifferentNetworks) {
  const auto scn = make_scenario();
  TrainingOptions options;
  options.num_samples = 3000;
  options.epochs = 15;
  options.seed = 555;
  const auto cons =
      cached_planner_network(*scn, PlannerStyle::kConservative, options);
  const auto aggr =
      cached_planner_network(*scn, PlannerStyle::kAggressive, options);
  // A marginal state where the styles must disagree.
  const InputEncoding enc;
  const auto x = enc.encode(0.0, -30.0, 8.0, util::Interval{4.5, 8.0});
  nn::Workspace ws;
  EXPECT_GT(aggr->predict_scalar(x, ws), cons->predict_scalar(x, ws));
}

}  // namespace
}  // namespace cvsafe::planners
