// The lane-change evaluation harness: determinism, safety guarantee, and
// the raw-vs-compound contrast across settings.

#include "cvsafe/sim/lane_change.hpp"

#include <gtest/gtest.h>

namespace cvsafe::eval {
namespace {

sim::LaneChangeSimConfig base_config() { return sim::LaneChangeSimConfig{}; }

TEST(LaneChangeSim, DeterministicGivenSeed) {
  const auto cfg = base_config();
  sim::LaneChangePlannerConfig planner;
  const auto a = sim::run_lane_change_simulation(cfg, planner, 5);
  const auto b = sim::run_lane_change_simulation(cfg, planner, 5);
  EXPECT_EQ(a.collided, b.collided);
  EXPECT_EQ(a.reach_time, b.reach_time);
  EXPECT_EQ(a.emergency_steps, b.emergency_steps);
}

TEST(LaneChangeSim, RawCruisePlannerViolates) {
  const auto cfg = base_config();
  sim::LaneChangePlannerConfig raw;
  raw.use_compound = false;
  std::size_t violations = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    violations += sim::run_lane_change_simulation(cfg, raw, seed).collided;
  }
  EXPECT_GT(violations, 10u);  // the workload genuinely probes the gap
}

TEST(LaneChangeSim, CompoundNeverViolates) {
  for (const bool lost : {false, true}) {
    auto cfg = base_config();
    if (lost) {
      cfg.comm = comm::CommConfig::messages_lost();
      cfg.sensor = sensing::SensorConfig::uniform(2.0);
    }
    sim::LaneChangePlannerConfig compound;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const auto r = sim::run_lane_change_simulation(cfg, compound, seed);
      ASSERT_FALSE(r.collided) << "seed " << seed << " lost=" << lost;
    }
  }
}

TEST(LaneChangeSim, CompoundStillReaches) {
  const auto cfg = base_config();
  sim::LaneChangePlannerConfig compound;
  const auto stats = sim::run_lane_change_batch(cfg, compound, 60, 1, 0);
  EXPECT_GT(stats.reached_count, 50u);
  EXPECT_GT(stats.mean_eta, 0.0);
}

TEST(LaneChangeSim, BatchAggregation) {
  const auto cfg = base_config();
  sim::LaneChangePlannerConfig compound;
  const auto stats = sim::run_lane_change_batch(cfg, compound, 40, 7, 4);
  EXPECT_EQ(stats.n, 40u);
  EXPECT_EQ(stats.safe_count, 40u);
  EXPECT_GT(stats.total_steps, 0u);
  // Parallel equals serial (determinism under threading).
  const auto serial = sim::run_lane_change_batch(cfg, compound, 40, 7, 1);
  EXPECT_EQ(serial.mean_eta, stats.mean_eta);
  EXPECT_EQ(serial.emergency_steps, stats.emergency_steps);
}

TEST(LaneChangeSim, EmergencyEngagesWhenTrafficIsTight) {
  auto cfg = base_config();
  cfg.c1_gap_max = 10.0;  // lead vehicle close ahead of the merge point
  cfg.c1_v_max = 6.0;     // and slow
  sim::LaneChangePlannerConfig compound;
  const auto stats = sim::run_lane_change_batch(cfg, compound, 40, 1, 0);
  EXPECT_EQ(stats.safe_count, stats.n);
  EXPECT_GT(stats.emergency_steps, 0u);
}

}  // namespace
}  // namespace cvsafe::eval
