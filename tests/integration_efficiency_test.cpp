// End-to-end efficiency claims of the paper (Eq. 1 left half and the
// trends of Tables I/II and Fig. 5), at reduced simulation counts:
//  * basic compound ~ pure NN for the conservative planner;
//  * ultimate compound faster than pure NN (conservative);
//  * ultimate >= basic for the aggressive planner;
//  * efficiency degrades as communication degrades.

#include <gtest/gtest.h>

#include "cvsafe/eval/batch.hpp"
#include "cvsafe/eval/experiments.hpp"

namespace cvsafe::eval {
namespace {

constexpr std::size_t kSims = 150;

sim::BatchStats run_variant(const sim::LeftTurnSimConfig& config,
                       planners::PlannerStyle style, PlannerVariant variant,
                       std::uint64_t base_seed = 1) {
  const auto bp = make_nn_blueprint(config, style, variant);
  return run_batch(config, bp, kSims, base_seed, 0);
}

TEST(ConservativeFamily, BasicMatchesPureNnEfficiency) {
  const auto config = sim::LeftTurnSimConfig::paper_defaults();
  const auto pure = run_variant(config, planners::PlannerStyle::kConservative,
                                PlannerVariant::kPureNn);
  const auto basic = run_variant(config,
                                 planners::PlannerStyle::kConservative,
                                 PlannerVariant::kBasic);
  ASSERT_GT(pure.reached_count, kSims * 9 / 10);
  // Table I: basic reaching time within a hair of pure NN.
  EXPECT_NEAR(basic.mean_reach_time, pure.mean_reach_time,
              0.15 * pure.mean_reach_time);
  EXPECT_EQ(basic.safe_count, basic.n);
}

TEST(ConservativeFamily, UltimateIsFasterThanPureNn) {
  const auto config = sim::LeftTurnSimConfig::paper_defaults();
  const auto pure = run_variant(config, planners::PlannerStyle::kConservative,
                                PlannerVariant::kPureNn);
  const auto ult = run_variant(config, planners::PlannerStyle::kConservative,
                               PlannerVariant::kUltimate);
  EXPECT_LT(ult.mean_reach_time, pure.mean_reach_time);
  EXPECT_GT(ult.mean_eta, pure.mean_eta);
  EXPECT_EQ(ult.safe_count, ult.n);
  // Winning percentage (one-control-step tie tolerance): ultimate wins
  // the vast majority of paired runs.
  EXPECT_GT(winning_fraction(ult.etas, pure.etas, 1e-3), 0.7);
}

TEST(AggressiveFamily, PureIsFastButUnsafe) {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.comm = comm::CommConfig::delayed(0.5, 0.25);
  const auto pure = run_variant(config, planners::PlannerStyle::kAggressive,
                                PlannerVariant::kPureNn);
  const auto ult = run_variant(config, planners::PlannerStyle::kAggressive,
                               PlannerVariant::kUltimate);
  // Table II shape: pure NN collides in a sizable share of episodes...
  EXPECT_LT(pure.safe_count, pure.n);
  // ...while the compound planner is 100% safe and wins on eta.
  EXPECT_EQ(ult.safe_count, ult.n);
  EXPECT_GT(ult.mean_eta, pure.mean_eta);
}

TEST(AggressiveFamily, UltimateAtLeastAsGoodAsBasic) {
  const auto config = sim::LeftTurnSimConfig::paper_defaults();
  const auto basic = run_variant(config, planners::PlannerStyle::kAggressive,
                                 PlannerVariant::kBasic);
  const auto ult = run_variant(config, planners::PlannerStyle::kAggressive,
                               PlannerVariant::kUltimate);
  EXPECT_EQ(basic.safe_count, basic.n);
  EXPECT_EQ(ult.safe_count, ult.n);
  // Table II: ultimate slightly faster (tolerate noise at this scale).
  EXPECT_LE(ult.mean_reach_time, basic.mean_reach_time * 1.05);
}

TEST(DisturbanceTrend, EfficiencyDegradesWithSensorNoise) {
  sim::LeftTurnSimConfig base = sim::LeftTurnSimConfig::paper_defaults();
  const auto clean =
      run_variant(apply_setting(base, CommSetting::kLost, 1.0),
                  planners::PlannerStyle::kConservative,
                  PlannerVariant::kUltimate);
  const auto noisy =
      run_variant(apply_setting(base, CommSetting::kLost, 4.8),
                  planners::PlannerStyle::kConservative,
                  PlannerVariant::kUltimate);
  // Fig. 5e: more noise, slower.
  EXPECT_GT(noisy.mean_reach_time, clean.mean_reach_time);
  // Fig. 5f: more noise, more emergency interventions.
  EXPECT_GE(noisy.emergency_frequency(), clean.emergency_frequency());
}

TEST(DisturbanceTrend, MessagesHelpOverSensorOnly) {
  sim::LeftTurnSimConfig base = sim::LeftTurnSimConfig::paper_defaults();
  base.sensor = sensing::SensorConfig::uniform(3.0);
  sim::LeftTurnSimConfig with_msgs = base;
  with_msgs.comm = comm::CommConfig::no_disturbance();
  sim::LeftTurnSimConfig without = base;
  without.comm = comm::CommConfig::messages_lost();
  const auto a = run_variant(with_msgs,
                             planners::PlannerStyle::kConservative,
                             PlannerVariant::kUltimate);
  const auto b = run_variant(without, planners::PlannerStyle::kConservative,
                             PlannerVariant::kUltimate);
  EXPECT_LT(a.mean_reach_time, b.mean_reach_time);
}

}  // namespace
}  // namespace cvsafe::eval
