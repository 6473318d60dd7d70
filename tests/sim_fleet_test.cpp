// Fleet engine equivalence: the pooled SoA engine (sim/fleet.hpp) must be
// byte-identical to the per-episode oracle (run_episodes) — same stats,
// same seed-aligned eta order, same metrics text — for any worker count or
// pool capacity. This is the contract that lets every batch entry point
// (run_batch, run_setting, the fault campaign) run on the fleet engine;
// the throughput path is only allowed to exist because this test holds.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cvsafe/eval/batch.hpp"
#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/sim/obs_summary.hpp"
#include "cvsafe/util/rng.hpp"

namespace {

using namespace cvsafe;

void expect_stats_equal(const sim::BatchStats& a, const sim::BatchStats& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.safe_count, b.safe_count);
  EXPECT_EQ(a.reached_count, b.reached_count);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.emergency_steps, b.emergency_steps);
  EXPECT_EQ(a.mean_eta, b.mean_eta);                // exact
  EXPECT_EQ(a.mean_reach_time, b.mean_reach_time);  // exact
  ASSERT_EQ(a.etas.size(), b.etas.size());
  for (std::size_t i = 0; i < a.etas.size(); ++i) {
    EXPECT_EQ(a.etas[i], b.etas[i]) << "episode " << i;  // exact
  }
}

void expect_records_match_results(
    const std::vector<sim::FleetRecord>& records,
    const std::vector<sim::RunResult>& results) {
  ASSERT_EQ(records.size(), results.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sim::RunResult r = sim::record_to_result(records[i]);
    EXPECT_EQ(r.collided, results[i].collided) << "episode " << i;
    EXPECT_EQ(r.reached, results[i].reached) << "episode " << i;
    EXPECT_EQ(r.reach_time, results[i].reach_time) << "episode " << i;
    EXPECT_EQ(r.eta, results[i].eta) << "episode " << i;
    EXPECT_EQ(r.steps, results[i].steps) << "episode " << i;
    EXPECT_EQ(r.emergency_steps, results[i].emergency_steps)
        << "episode " << i;
    EXPECT_EQ(r.ladder_steps, results[i].ladder_steps) << "episode " << i;
    EXPECT_EQ(r.ladder_transitions, results[i].ladder_transitions)
        << "episode " << i;
    EXPECT_EQ(r.messages_accepted, results[i].messages_accepted)
        << "episode " << i;
    EXPECT_EQ(r.messages_rejected, results[i].messages_rejected)
        << "episode " << i;
  }
}

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

TEST(SimFleet, MatchesPerEpisodeAcrossVariantsThreadsAndPools) {
  sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
  cfg.comm = comm::CommConfig::delayed(0.4, 0.25);

  for (const auto& agent : {sim::AgentConfig::pure_nn(),
                            sim::AgentConfig::basic_compound(),
                            sim::AgentConfig::ultimate_compound()}) {
    const auto bp = nn_blueprint(cfg, agent);
    const sim::LeftTurnAdapter adapter(cfg, bp);
    const auto baseline = sim::BatchStats::from_results(sim::run_episodes(
        adapter, /*n=*/12, /*base_seed=*/601, /*threads=*/2));
    for (const std::size_t threads : {1u, 4u, 7u}) {
      // Pool smaller than the batch forces compact/refill churn; pool
      // larger than the batch exercises the everything-resident path.
      for (const std::size_t pool : {3u, 12u, 64u}) {
        sim::FleetConfig fc;
        fc.pool_capacity = pool;
        fc.threads = threads;
        const auto fleet = sim::run_left_turn_fleet(cfg, bp, 12, 601, fc);
        expect_stats_equal(fleet.stats, baseline);
      }
    }
  }
}

TEST(SimFleet, MetricsFoldMatchesPerEpisodePath) {
  sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
  cfg.comm = comm::CommConfig::messages_lost();
  cfg.sensor = sensing::SensorConfig::uniform(2.0);
  const auto bp = nn_blueprint(cfg, sim::AgentConfig::ultimate_compound());
  const sim::LeftTurnAdapter adapter(cfg, bp);

  const auto results = sim::run_episodes(adapter, 9, 702, /*threads=*/2);
  obs::MetricsRegistry expected;
  sim::collect_metrics(expected, results);

  std::string text;
  for (const std::size_t threads : {1u, 4u, 7u}) {
    sim::FleetConfig fc;
    fc.threads = threads;
    const auto fleet = sim::run_left_turn_fleet(cfg, bp, 9, 702, fc);
    EXPECT_EQ(fleet.metrics.prometheus_text(), expected.prometheus_text())
        << "threads=" << threads;
    // Thread-count invariance of the full text, byte for byte.
    if (text.empty()) {
      text = fleet.metrics.prometheus_text();
    } else {
      EXPECT_EQ(fleet.metrics.prometheus_text(), text);
    }
  }
}

TEST(SimFleet, GenericScenariosMatchRunEpisodes) {
  // Non-left-turn adapters take the generic (per-episode planner) path of
  // the fleet worker; records must match run_episodes field for field
  // under the campaign's kDerived seed policy.
  sim::FleetConfig fc;
  fc.threads = 4;
  fc.policy = sim::SeedPolicy::kDerived;

  {
    sim::LaneChangeSimConfig cfg;
    cfg.comm = comm::CommConfig::delayed(0.3, 0.25);
    const sim::LaneChangeAdapter adapter(cfg, sim::LaneChangePlannerConfig{});
    const auto results = sim::run_episodes(adapter, 6, 811, 2,
                                           sim::SeedPolicy::kDerived);
    const auto records = sim::run_fleet_records(adapter, 6, 811, fc);
    expect_records_match_results(records, results);
  }
  {
    sim::IntersectionSimConfig cfg;
    cfg.comm = comm::CommConfig::delayed(0.3, 0.25);
    const sim::IntersectionAdapter adapter(cfg, /*use_compound=*/true);
    const auto results = sim::run_episodes(adapter, 6, 812, 2,
                                           sim::SeedPolicy::kDerived);
    const auto records = sim::run_fleet_records(adapter, 6, 812, fc);
    expect_records_match_results(records, results);
  }
  {
    sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
    cfg.comm = comm::CommConfig::delayed(0.3, 0.25);
    sim::MultiAgentSetup setup;
    setup.scenario = cfg.make_scenario();  // net == nullptr -> expert
    const sim::MultiVehicleAdapter adapter(cfg, sim::MultiVehicleConfig{},
                                           setup);
    const auto results = sim::run_episodes(adapter, 4, 813, 2,
                                           sim::SeedPolicy::kDerived);
    const auto records = sim::run_fleet_records(adapter, 4, 813, fc);
    expect_records_match_results(records, results);
  }
}

TEST(SimFleet, ExpertBlueprintUsesGenericPathBitExactly) {
  // A left-turn blueprint without a batchable kappa_n (expert planner)
  // must run the plan()-only path — monitor_gate must NOT be queried
  // separately, or the monitor would run twice per step and diverge.
  sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
  cfg.comm = comm::CommConfig::delayed(0.3, 0.25);
  sim::AgentBlueprint bp;
  bp.name = "expert";
  bp.scenario = cfg.make_scenario();
  bp.sensor = cfg.sensor;
  bp.config = sim::AgentConfig::ultimate_compound();
  bp.config.use_expert_planner = true;

  const sim::LeftTurnAdapter adapter(cfg, bp);
  const auto per_episode = sim::BatchStats::from_results(
      sim::run_episodes(adapter, 8, 801, /*threads=*/2));
  sim::FleetConfig fc;
  fc.threads = 3;
  const auto fleet = sim::run_left_turn_fleet(cfg, bp, 8, 801, fc);
  expect_stats_equal(fleet.stats, per_episode);
}

TEST(SimFleet, RunSettingEnginesAreByteIdentical) {
  // The table-cell runner (fleet engine) must produce the same merged
  // stats (and the same eta order) as folding run_episodes over every
  // grid point with the per-point seed bases run_setting derives.
  sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
  cfg.horizon = 20.0;
  const auto bp = nn_blueprint(cfg, sim::AgentConfig::ultimate_compound());
  const auto setting = eval::CommSetting::kDelayed;
  const std::vector<double> grid = eval::drop_prob_grid();
  const std::size_t sims_total = 20;
  const std::size_t per_point = (sims_total + grid.size() - 1) / grid.size();

  const auto fleet = eval::run_setting(cfg, bp, setting, sims_total, 1, 2);
  sim::BatchStats expected;
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    const auto point = eval::apply_setting(cfg, setting, grid[gi]);
    sim::AgentBlueprint point_bp = bp;
    point_bp.sensor = point.sensor;
    const std::uint64_t point_base = util::derive_seed(
        1, (static_cast<std::uint64_t>(setting) << 32U) | gi);
    const sim::LeftTurnAdapter adapter(point, point_bp);
    expected.merge(sim::BatchStats::from_results(
        sim::run_episodes(adapter, per_point, point_base, 2)));
  }
  expect_stats_equal(fleet, expected);
}

// --- Fold determinism (shard-merge invariance) ---------------------------

std::vector<sim::RunResult> synthetic_results() {
  // Dyadic eta / reach-time values keep every floating-point sum exact,
  // so shard partitioning cannot change any accumulated value and the
  // folds below can assert exact equality.
  std::vector<sim::RunResult> results;
  for (std::size_t i = 0; i < 24; ++i) {
    sim::RunResult r;
    r.eta = -1.0 + 0.125 * static_cast<double>(i % 17);
    r.collided = (i % 5) == 0;
    r.reached = !r.collided && (i % 3) != 0;
    r.reach_time = r.reached ? 4.0 + 0.25 * static_cast<double>(i) : 0.0;
    r.steps = 100 + i;
    r.emergency_steps = i % 7;
    r.ladder_steps[i % core::kNumDegradationLevels] = 10 + i;
    r.ladder_transitions = i % 4;
    r.messages_accepted = 50 + 2 * i;
    r.messages_rejected = i;
    results.push_back(r);
  }
  return results;
}

TEST(FoldDeterminism, BatchStatsMergeIsShardCountInvariant) {
  const auto results = synthetic_results();
  const auto whole = sim::BatchStats::from_results(results);

  for (const std::size_t shards : {1u, 4u, 7u}) {
    const std::size_t per = (results.size() + shards - 1) / shards;
    sim::BatchStats merged;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t first = s * per;
      if (first >= results.size()) break;
      const std::size_t count = std::min(per, results.size() - first);
      merged.merge(sim::BatchStats::from_results(
          std::span<const sim::RunResult>(results).subspan(first, count)));
    }
    EXPECT_EQ(merged.n, whole.n) << "shards=" << shards;
    EXPECT_EQ(merged.safe_count, whole.safe_count);
    EXPECT_EQ(merged.reached_count, whole.reached_count);
    EXPECT_EQ(merged.total_steps, whole.total_steps);
    EXPECT_EQ(merged.emergency_steps, whole.emergency_steps);
    // Weighted-mean reassembly: deterministic for a given partition;
    // dyadic inputs still round through a division per shard, so allow
    // one-ulp-scale slack on the means only.
    EXPECT_NEAR(merged.mean_eta, whole.mean_eta, 1e-12);
    EXPECT_NEAR(merged.mean_reach_time, whole.mean_reach_time, 1e-12);
    // Seed-aligned eta order is exact: concatenation of ordered shards.
    ASSERT_EQ(merged.etas.size(), whole.etas.size());
    for (std::size_t i = 0; i < whole.etas.size(); ++i) {
      EXPECT_EQ(merged.etas[i], whole.etas[i]) << "episode " << i;
    }
  }
}

TEST(FoldDeterminism, MetricsRegistryMergeIsShardCountInvariant) {
  const auto results = synthetic_results();
  obs::MetricsRegistry whole;
  sim::collect_metrics(whole, results);
  const std::string expected = whole.prometheus_text();

  for (const std::size_t shards : {1u, 4u, 7u}) {
    const std::size_t per = (results.size() + shards - 1) / shards;
    obs::MetricsRegistry merged;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t first = s * per;
      if (first >= results.size()) break;
      const std::size_t count = std::min(per, results.size() - first);
      obs::MetricsRegistry shard;
      sim::collect_metrics(
          shard,
          std::span<const sim::RunResult>(results).subspan(first, count));
      merged.merge(shard);
    }
    // Counters and histogram buckets are integers and the synthetic sums
    // are exact, so the full exposition text matches byte for byte.
    EXPECT_EQ(merged.prometheus_text(), expected) << "shards=" << shards;
  }
}

TEST(FoldDeterminism, StatsFromRecordsMirrorsFromResults) {
  const auto results = synthetic_results();
  std::vector<sim::FleetRecord> records;
  records.reserve(results.size());
  for (const auto& r : results) {
    records.push_back(sim::record_from_result(r));
  }
  const auto via_records = sim::stats_from_records(records);
  const auto via_results = sim::BatchStats::from_results(results);
  expect_stats_equal(via_records, via_results);

  obs::MetricsRegistry reg_records;
  sim::collect_record_metrics(reg_records, records);
  obs::MetricsRegistry reg_results;
  sim::collect_metrics(reg_results, results);
  EXPECT_EQ(reg_records.prometheus_text(), reg_results.prometheus_text());
}

}  // namespace
