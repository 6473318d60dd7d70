// End-to-end safety guarantee (DESIGN.md invariant 1, Eq. 1 right half):
// a compound planner NEVER collides — for any wrapped planner (expert or
// trained NN, conservative or aggressive), under every communication
// setting, across many random workloads. This is the paper's headline
// property, exercised through the full stack: channel, sensor, filters,
// monitor, emergency planner, dynamics.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "cvsafe/eval/batch.hpp"
#include "cvsafe/eval/experiments.hpp"

namespace cvsafe::eval {
namespace {

sim::LeftTurnSimConfig setting_config(CommSetting setting, double sweep) {
  sim::LeftTurnSimConfig base = sim::LeftTurnSimConfig::paper_defaults();
  return apply_setting(base, setting, sweep);
}

// CTest names each case after gtest's byte dump of its parameter
// ("24-byte object <...>"), so SafetyCase has no implicit padding: padding
// bytes are uninitialized, and the names they printed changed from one test
// discovery to the next. `name_tag` fills the slot that padding held and
// carries the bytes the suite's established case names show there; the
// test itself never reads it.
struct SafetyCase {
  CommSetting setting;
  std::array<std::uint8_t, 4> name_tag;
  double sweep;
  bool aggressive_style;
  bool ultimate;
  std::array<std::uint8_t, 6> tail;
};
static_assert(sizeof(SafetyCase) == 24, "SafetyCase must have no padding");

constexpr std::array<std::uint8_t, 4> kNoTag{};
constexpr std::array<std::uint8_t, 6> kNoTail{};

class CompoundSafetyTest : public ::testing::TestWithParam<SafetyCase> {};

TEST_P(CompoundSafetyTest, NeverCollides) {
  const SafetyCase c = GetParam();
  const auto config = setting_config(c.setting, c.sweep);

  // Expert-backed agents (deterministic, no training): the framework must
  // protect even a deliberately reckless embedded planner.
  sim::AgentBlueprint bp;
  bp.scenario = config.make_scenario();
  bp.sensor = config.sensor;
  bp.config = c.ultimate ? sim::AgentConfig::ultimate_compound()
                         : sim::AgentConfig::basic_compound();
  bp.config.use_expert_planner = true;
  bp.config.expert_params = c.aggressive_style
                                ? planners::ExpertParams::aggressive()
                                : planners::ExpertParams::conservative();
  bp.name = "safety-case";

  const sim::BatchStats stats = run_batch(config, bp, 120, 1000, 0);
  EXPECT_EQ(stats.safe_count, stats.n)
      << "collisions under " << comm_setting_name(c.setting)
      << " sweep=" << c.sweep;
}

INSTANTIATE_TEST_SUITE_P(
    AllSettings, CompoundSafetyTest,
    ::testing::Values(
        SafetyCase{CommSetting::kNoDisturbance, {0x65, 0x73, 0x74, 0x5F}, 0.0,
                   false, false, kNoTail},
        SafetyCase{CommSetting::kNoDisturbance, kNoTag, 0.0, true, false,
                   kNoTail},
        SafetyCase{CommSetting::kNoDisturbance, kNoTag, 0.0, true, true,
                   kNoTail},
        SafetyCase{CommSetting::kDelayed, kNoTag, 0.5, false, true, kNoTail},
        SafetyCase{CommSetting::kDelayed, kNoTag, 0.5, true, false, kNoTail},
        SafetyCase{CommSetting::kDelayed, {0x00, 0x00, 0xC0, 0xEF}, 0.95, true,
                   true, kNoTail},
        SafetyCase{CommSetting::kLost, kNoTag, 2.0, true, false, kNoTail},
        SafetyCase{CommSetting::kLost, {0x00, 0x00, 0xD0, 0xCA}, 4.8, true,
                   true, kNoTail},
        SafetyCase{CommSetting::kLost, kNoTag, 4.8, false, true, kNoTail}));

// The pure aggressive planner DOES collide (otherwise the guarantee above
// would be vacuous): the workload genuinely stresses safety.
TEST(PureAggressiveBaseline, CollidesWithoutTheFramework) {
  const sim::LeftTurnSimConfig config =
      setting_config(CommSetting::kDelayed, 0.5);
  sim::AgentBlueprint bp;
  bp.scenario = config.make_scenario();
  bp.sensor = config.sensor;
  bp.config = sim::AgentConfig::pure_nn();
  bp.config.use_expert_planner = true;
  bp.config.expert_params = planners::ExpertParams::aggressive();
  bp.name = "pure-aggressive";
  const sim::BatchStats stats = run_batch(config, bp, 200, 1000, 0);
  EXPECT_LT(stats.safe_count, stats.n)
      << "the aggressive baseline never collided - the safety test above "
         "is not probing anything";
}

// Trained-NN version of the headline property, across all three settings.
TEST(TrainedNnCompound, AggressiveUltimateNeverCollides) {
  for (const auto setting : {CommSetting::kNoDisturbance,
                             CommSetting::kDelayed, CommSetting::kLost}) {
    const auto config = setting_config(
        setting, setting == CommSetting::kLost ? 3.0 : 0.5);
    const auto bp = make_nn_blueprint(
        config, planners::PlannerStyle::kAggressive,
        PlannerVariant::kUltimate);
    const sim::BatchStats stats = run_batch(config, bp, 150, 2000, 0);
    EXPECT_EQ(stats.safe_count, stats.n)
        << "collision under " << comm_setting_name(setting);
  }
}

// Emergency planner actually engages for the aggressive planner (the
// guarantee is earned, not incidental).
TEST(TrainedNnCompound, EmergencyEngagesForAggressivePlanner) {
  const auto config = setting_config(CommSetting::kNoDisturbance, 0.0);
  const auto bp = make_nn_blueprint(config,
                                    planners::PlannerStyle::kAggressive,
                                    PlannerVariant::kBasic);
  const sim::BatchStats stats = run_batch(config, bp, 100, 1, 0);
  EXPECT_GT(stats.emergency_steps, 0u);
  EXPECT_EQ(stats.safe_count, stats.n);
}

}  // namespace
}  // namespace cvsafe::eval
