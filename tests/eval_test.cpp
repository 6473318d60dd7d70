// Evaluation harness: agent assembly, simulation determinism, batch
// aggregation, seed pairing, and the experiment presets. Uses expert
// (closed-form) planners to keep the tests independent of NN training.

#include <gtest/gtest.h>

#include "cvsafe/eval/batch.hpp"
#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/sim/left_turn.hpp"

namespace cvsafe::eval {
namespace {

sim::LeftTurnSimConfig test_config() {
  sim::LeftTurnSimConfig c = sim::LeftTurnSimConfig::paper_defaults();
  c.horizon = 20.0;
  return c;
}

sim::AgentBlueprint expert_blueprint(
    const sim::LeftTurnSimConfig& config, sim::AgentConfig ac,
    planners::ExpertParams params = planners::ExpertParams::conservative()) {
  sim::AgentBlueprint bp;
  bp.name = "expert";
  bp.scenario = config.make_scenario();
  bp.net = nullptr;
  bp.sensor = config.sensor;
  ac.use_expert_planner = true;
  ac.expert_params = params;
  bp.config = ac;
  return bp;
}

TEST(AgentConfig, Presets) {
  const auto pure = sim::AgentConfig::pure_nn();
  EXPECT_FALSE(pure.use_compound);
  const auto basic = sim::AgentConfig::basic_compound();
  EXPECT_TRUE(basic.use_compound);
  EXPECT_FALSE(basic.use_info_filter);
  EXPECT_FALSE(basic.use_aggressive);
  const auto ult = sim::AgentConfig::ultimate_compound();
  EXPECT_TRUE(ult.use_info_filter);
  EXPECT_TRUE(ult.use_aggressive);
}

TEST(WorkloadParams, PaperGrid) {
  const auto grid = sim::WorkloadParams::paper_p1_grid();
  ASSERT_EQ(grid.size(), 20u);
  EXPECT_EQ(grid.front(), 50.5);
  EXPECT_EQ(grid.back(), 60.0);
}

TEST(Simulation, DeterministicGivenSeed) {
  const sim::LeftTurnSimConfig config = test_config();
  const auto bp = expert_blueprint(config, sim::AgentConfig::basic_compound());
  const sim::RunResult a = sim::run_left_turn_simulation(config, bp, 42);
  const sim::RunResult b = sim::run_left_turn_simulation(config, bp, 42);
  EXPECT_EQ(a.collided, b.collided);
  EXPECT_EQ(a.reached, b.reached);
  EXPECT_EQ(a.reach_time, b.reach_time);
  EXPECT_EQ(a.emergency_steps, b.emergency_steps);
}

TEST(Simulation, SeedsVaryTheWorkload) {
  const sim::LeftTurnSimConfig config = test_config();
  const auto bp = expert_blueprint(config, sim::AgentConfig::basic_compound());
  int distinct = 0;
  double prev = -1.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto r = sim::run_left_turn_simulation(config, bp, seed);
    if (r.reach_time != prev) ++distinct;
    prev = r.reach_time;
  }
  EXPECT_GT(distinct, 4);
}

TEST(Simulation, ExpertCompoundReachesTarget) {
  const sim::LeftTurnSimConfig config = test_config();
  const auto bp = expert_blueprint(config, sim::AgentConfig::basic_compound());
  int reached = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto r = sim::run_left_turn_simulation(config, bp, seed);
    EXPECT_FALSE(r.collided) << "seed " << seed;
    reached += r.reached ? 1 : 0;
  }
  EXPECT_GE(reached, 18);
}

TEST(Simulation, TraceRecordsEveryStep) {
  const sim::LeftTurnSimConfig config = test_config();
  const auto bp =
      expert_blueprint(config, sim::AgentConfig::ultimate_compound());
  sim::SimTrace trace;
  const auto r = sim::run_left_turn_simulation(config, bp, 3, &trace);
  EXPECT_EQ(trace.ego.size(), r.steps);
  EXPECT_EQ(trace.accel_commands.size(), r.steps);
  EXPECT_EQ(trace.emergency_flags.size(), r.steps);
  // Ego starts at the configured position.
  EXPECT_EQ(trace.ego.front().state.p, config.geometry.ego_start);
  // Time axis is the control clock.
  EXPECT_NEAR(trace.ego[1].t - trace.ego[0].t, config.dt_c, 1e-12);
}

TEST(Simulation, EtaConsistentWithOutcome) {
  const sim::LeftTurnSimConfig config = test_config();
  const auto bp = expert_blueprint(config, sim::AgentConfig::basic_compound());
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto r = sim::run_left_turn_simulation(config, bp, seed);
    if (r.collided) {
      EXPECT_EQ(r.eta, -1.0);
    } else if (r.reached) {
      EXPECT_NEAR(r.eta, 1.0 / r.reach_time, 1e-12);
    } else {
      EXPECT_EQ(r.eta, 0.0);
    }
  }
}

TEST(Batch, AggregatesConsistently) {
  const sim::LeftTurnSimConfig config = test_config();
  const auto bp = expert_blueprint(config, sim::AgentConfig::basic_compound());
  const sim::BatchStats stats = run_batch(config, bp, 30, 1, 2);
  EXPECT_EQ(stats.n, 30u);
  EXPECT_EQ(stats.etas.size(), 30u);
  EXPECT_LE(stats.safe_count, stats.n);
  EXPECT_LE(stats.reached_count, stats.n);
  EXPECT_GT(stats.total_steps, 0u);
  // Mean eta must match the stored per-episode values.
  double sum = 0.0;
  for (double e : stats.etas) sum += e;
  EXPECT_NEAR(stats.mean_eta, sum / 30.0, 1e-12);
}

TEST(Batch, ParallelMatchesSerial) {
  const sim::LeftTurnSimConfig config = test_config();
  const auto bp =
      expert_blueprint(config, sim::AgentConfig::ultimate_compound());
  const sim::BatchStats serial = run_batch(config, bp, 16, 7, 1);
  const sim::BatchStats parallel = run_batch(config, bp, 16, 7, 8);
  EXPECT_EQ(serial.etas, parallel.etas);
  EXPECT_EQ(serial.emergency_steps, parallel.emergency_steps);
}

TEST(Batch, MergeCombinesCounts) {
  sim::BatchStats a, b;
  a.n = 2;
  a.safe_count = 2;
  a.reached_count = 1;
  a.mean_eta = 0.1;
  a.mean_reach_time = 8.0;
  a.etas = {0.2, 0.0};
  a.total_steps = 100;
  b.n = 2;
  b.safe_count = 1;
  b.reached_count = 2;
  b.mean_eta = 0.3;
  b.mean_reach_time = 5.0;
  b.etas = {0.3, 0.3};
  b.total_steps = 50;
  b.emergency_steps = 5;
  a.merge(b);
  EXPECT_EQ(a.n, 4u);
  EXPECT_EQ(a.safe_count, 3u);
  EXPECT_EQ(a.reached_count, 3u);
  EXPECT_NEAR(a.mean_eta, 0.2, 1e-12);
  EXPECT_NEAR(a.mean_reach_time, (8.0 * 1 + 5.0 * 2) / 3.0, 1e-12);
  EXPECT_EQ(a.etas.size(), 4u);
  EXPECT_EQ(a.total_steps, 150u);
  EXPECT_NEAR(a.emergency_frequency(), 5.0 / 150.0, 1e-12);
}

TEST(WinningFraction, CountsStrictWins) {
  const std::vector<double> a{0.2, 0.1, 0.3, -1.0};
  const std::vector<double> b{0.1, 0.1, 0.4, -1.0};
  EXPECT_NEAR(winning_fraction(a, b), 0.25, 1e-12);
}

TEST(WinningFraction, ToleranceCountsNearTies) {
  const std::vector<double> a{0.2, 0.1, 0.3995, -1.0};
  const std::vector<double> b{0.1, 0.1, 0.4, -1.0};
  // With a one-control-step tolerance the exact tie and the 5e-4
  // difference both count as wins.
  EXPECT_NEAR(winning_fraction(a, b, 1e-3), 0.75, 1e-12);
}

TEST(Experiments, GridsMatchPaper) {
  const auto drops = drop_prob_grid();
  ASSERT_EQ(drops.size(), 20u);
  EXPECT_EQ(drops.front(), 0.0);
  EXPECT_NEAR(drops.back(), 0.95, 1e-12);
  const auto deltas = sensor_delta_grid();
  ASSERT_EQ(deltas.size(), 20u);
  EXPECT_EQ(deltas.front(), 1.0);
  EXPECT_NEAR(deltas.back(), 4.8, 1e-12);
}

TEST(Experiments, ApplySettingShapesConfig) {
  const sim::LeftTurnSimConfig base = test_config();
  const auto nd = apply_setting(base, CommSetting::kNoDisturbance, 0.0);
  EXPECT_EQ(nd.comm.drop_prob, 0.0);
  const auto delayed = apply_setting(base, CommSetting::kDelayed, 0.4);
  EXPECT_EQ(delayed.comm.drop_prob, 0.4);
  EXPECT_EQ(delayed.comm.delay, kPaperMessageDelay);
  const auto lost = apply_setting(base, CommSetting::kLost, 3.0);
  EXPECT_TRUE(lost.comm.lost);
  EXPECT_EQ(lost.sensor.delta_p, 3.0);
}

TEST(Experiments, RunSettingAggregatesAcrossGrid) {
  const sim::LeftTurnSimConfig config = test_config();
  const auto bp =
      expert_blueprint(config, sim::AgentConfig::ultimate_compound());
  const sim::BatchStats stats =
      run_setting(config, bp, CommSetting::kDelayed, 40, 1, 4);
  // 20 grid points x ceil(40/20) = 2 episodes each.
  EXPECT_EQ(stats.n, 40u);
  EXPECT_EQ(stats.etas.size(), 40u);
}

TEST(EnsembleAgent, SafeAndFunctional) {
  sim::LeftTurnSimConfig config = test_config();
  config.comm = comm::CommConfig::delayed(0.4, 0.25);

  sim::AgentBlueprint bp;
  bp.scenario = config.make_scenario();
  planners::TrainingOptions small;
  small.num_samples = 2500;
  small.epochs = 10;
  small.seed = 8800;
  bp.ensemble = planners::train_planner_ensemble(
      *bp.scenario, planners::PlannerStyle::kAggressive, 3, small);
  bp.sensor = config.sensor;
  bp.config = sim::AgentConfig::ultimate_compound();
  bp.config.ensemble_sigma_penalty = 1.0;
  bp.name = "ensemble-ultimate";

  const sim::BatchStats stats = run_batch(config, bp, 40, 1, 0);
  EXPECT_EQ(stats.safe_count, stats.n);
  EXPECT_GT(stats.reached_count, 30u);
}

TEST(Experiments, NamesAreStable) {
  EXPECT_STREQ(comm_setting_name(CommSetting::kNoDisturbance),
               "no disturbance");
  EXPECT_STREQ(planner_variant_name(PlannerVariant::kUltimate), "ultimate");
}

}  // namespace
}  // namespace cvsafe::eval
