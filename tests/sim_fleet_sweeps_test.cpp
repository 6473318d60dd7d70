// Batched-sweep equivalence: FleetConfig::batched_sweeps selects whether
// the cohort step observes through the pump -> deliver -> estimate ->
// reach sweeps over pool-resident SoA stacks or through each lane's own
// scalar observe(). The two must be byte-identical — same seed-ordered
// records, same BatchStats (eta order included), same metrics text — for
// every agent variant, worker count and pool capacity. The scalar-stack
// reference is itself pinned against the per-episode engine by
// sim_fleet_test, so this suite closes the chain batched == scalar ==
// per-episode.
//
// Registered in tests/CMakeLists.txt and therefore also in the tsan CTest
// preset: CI races the batched sweeps at 1/4/7 worker threads under
// ThreadSanitizer via this test.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cvsafe/fault/fault_plan.hpp"
#include "cvsafe/filter/plausibility.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/sim/engine.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/left_turn.hpp"

namespace {

using namespace cvsafe;

sim::AgentBlueprint nn_blueprint(const sim::LeftTurnSimConfig& cfg,
                                 sim::AgentConfig agent) {
  util::Rng net_rng(42);
  sim::AgentBlueprint bp;
  bp.name = "nn";
  bp.scenario = cfg.make_scenario();
  bp.net = std::make_shared<const nn::Mlp>(nn::MlpSpec{{4, 16, 16, 1}},
                                           net_rng);
  bp.sensor = cfg.sensor;
  bp.config = agent;
  return bp;
}

void expect_records_equal(const std::vector<sim::FleetRecord>& a,
                          const std::vector<sim::FleetRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].eta, b[i].eta) << "episode " << i;  // exact
    EXPECT_EQ(a[i].reach_time, b[i].reach_time) << "episode " << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << "episode " << i;
    EXPECT_EQ(a[i].emergency_steps, b[i].emergency_steps)
        << "episode " << i;
    EXPECT_EQ(a[i].ladder_steps, b[i].ladder_steps) << "episode " << i;
    EXPECT_EQ(a[i].ladder_transitions, b[i].ladder_transitions)
        << "episode " << i;
    EXPECT_EQ(a[i].messages_accepted, b[i].messages_accepted)
        << "episode " << i;
    EXPECT_EQ(a[i].messages_rejected, b[i].messages_rejected)
        << "episode " << i;
    EXPECT_EQ(a[i].collided, b[i].collided) << "episode " << i;
    EXPECT_EQ(a[i].reached, b[i].reached) << "episode " << i;
  }
}

// The three stack shapes the sweeps must cover: no Kalman lanes at all,
// Kalman lanes on both estimators, and Kalman + pool-resident ladder
// under a hardened gate with payload corruption (every sweep active).
std::vector<sim::AgentConfig> sweep_variants() {
  std::vector<sim::AgentConfig> variants;
  variants.push_back(sim::AgentConfig::basic_compound());
  variants.push_back(sim::AgentConfig::ultimate_compound());
  sim::AgentConfig laddered = sim::AgentConfig::ultimate_compound();
  laddered.gate = filter::GateConfig::hardened();
  laddered.ladder = core::LadderConfig{};
  variants.push_back(laddered);
  return variants;
}

TEST(SimFleetSweeps, BatchedMatchesReferenceAcrossVariantsThreadsAndPools) {
  sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
  cfg.comm = comm::CommConfig::delayed(0.4, 0.25);
  cfg.faults = fault::FaultPlan::corruption();

  for (const auto& agent : sweep_variants()) {
    const auto bp = nn_blueprint(cfg, agent);

    sim::FleetConfig ref;
    ref.pool_capacity = 12;
    ref.threads = 2;
    ref.batched_sweeps = false;
    const auto reference =
        sim::run_left_turn_fleet_records(cfg, bp, 12, 901, ref);

    for (const std::size_t threads : {1u, 4u, 7u}) {
      // Pool 3 forces compact/refill churn through the SoA slot free
      // lists; 8192 is the production capacity (everything resident).
      for (const std::size_t pool : {3u, 64u, 8192u}) {
        sim::FleetConfig fc;
        fc.pool_capacity = pool;
        fc.threads = threads;
        fc.batched_sweeps = true;
        const auto batched =
            sim::run_left_turn_fleet_records(cfg, bp, 12, 901, fc);
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " pool=" << pool);
        expect_records_equal(batched, reference);
      }
    }
  }
}

TEST(SimFleetSweeps, StatsAndMetricsByteIdentical) {
  sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
  cfg.comm = comm::CommConfig::delayed(0.4, 0.25);
  cfg.faults = fault::FaultPlan::corruption();
  sim::AgentConfig agent = sim::AgentConfig::ultimate_compound();
  agent.gate = filter::GateConfig::hardened();
  agent.ladder = core::LadderConfig{};
  const auto bp = nn_blueprint(cfg, agent);

  sim::FleetConfig ref;
  ref.threads = 2;
  ref.batched_sweeps = false;
  const auto reference = sim::run_left_turn_fleet(cfg, bp, 10, 902, ref);

  for (const std::size_t threads : {1u, 4u, 7u}) {
    sim::FleetConfig fc;
    fc.threads = threads;
    fc.batched_sweeps = true;
    const auto batched = sim::run_left_turn_fleet(cfg, bp, 10, 902, fc);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_EQ(batched.stats.n, reference.stats.n);
    EXPECT_EQ(batched.stats.safe_count, reference.stats.safe_count);
    EXPECT_EQ(batched.stats.reached_count, reference.stats.reached_count);
    EXPECT_EQ(batched.stats.total_steps, reference.stats.total_steps);
    EXPECT_EQ(batched.stats.emergency_steps,
              reference.stats.emergency_steps);
    EXPECT_EQ(batched.stats.mean_eta, reference.stats.mean_eta);  // exact
    EXPECT_EQ(batched.stats.mean_reach_time,
              reference.stats.mean_reach_time);
    ASSERT_EQ(batched.stats.etas.size(), reference.stats.etas.size());
    for (std::size_t i = 0; i < reference.stats.etas.size(); ++i) {
      EXPECT_EQ(batched.stats.etas[i], reference.stats.etas[i])
          << "episode " << i;
    }
    EXPECT_EQ(batched.metrics.prometheus_text(),
              reference.metrics.prometheus_text());
  }
}

TEST(SimFleetSweeps, RejectionTalliesIdenticalAcrossPoolsAndEngines) {
  // Plausibility-gate accounting must be a pure function of the episode
  // seed: the per-episode accepted/rejected tallies — and therefore the
  // fleet totals — are identical across pool sizes and between the fleet
  // engine and the per-episode engine. A lane-compaction bug that
  // double-counts (or drops) a relocated episode's gate counters shifts
  // these totals and fails here.
  sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
  cfg.comm = comm::CommConfig::delayed(0.4, 0.25);
  cfg.faults = fault::FaultPlan::corruption();
  sim::AgentConfig agent = sim::AgentConfig::ultimate_compound();
  agent.gate = filter::GateConfig::hardened();
  const auto bp = nn_blueprint(cfg, agent);

  const sim::LeftTurnAdapter adapter(cfg, bp);
  const auto episode_results = sim::run_episodes(adapter, 12, 903,
                                                 /*threads=*/2);
  ASSERT_EQ(episode_results.size(), 12u);
  std::size_t expect_accepted = 0;
  std::size_t expect_rejected = 0;
  for (const auto& r : episode_results) {
    expect_accepted += r.messages_accepted;
    expect_rejected += r.messages_rejected;
  }
  // The corruption plan against the hardened gate must actually reject —
  // otherwise this test pins nothing.
  ASSERT_GT(expect_rejected, 0u);
  ASSERT_GT(expect_accepted, 0u);

  for (const std::size_t pool : {3u, 64u, 8192u}) {
    sim::FleetConfig fc;
    fc.pool_capacity = pool;
    fc.threads = 4;
    const auto records =
        sim::run_left_turn_fleet_records(cfg, bp, 12, 903, fc);
    ASSERT_EQ(records.size(), episode_results.size());
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].messages_accepted,
                episode_results[i].messages_accepted)
          << "pool=" << pool << " episode " << i;
      EXPECT_EQ(records[i].messages_rejected,
                episode_results[i].messages_rejected)
          << "pool=" << pool << " episode " << i;
      accepted += records[i].messages_accepted;
      rejected += records[i].messages_rejected;
    }
    EXPECT_EQ(accepted, expect_accepted) << "pool=" << pool;
    EXPECT_EQ(rejected, expect_rejected) << "pool=" << pool;
  }
}

}  // namespace
