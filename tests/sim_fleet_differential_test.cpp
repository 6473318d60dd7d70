// Randomized differential conformance: the fleet engine against the
// scalar oracle. A fixed seed schedule draws cases — scenario (all four),
// a point of the adversarial fault space decoded to a FaultPlan, a seed
// and seed policy, a pool capacity in {1, 3, 64, 8192}, a worker count in
// {1, 2, 3} and FleetConfig::batched_sweeps — and every FleetRecord of
// run_fleet_records must equal record_from_result(run_episode(...)) of
// the same episode, eta and reach time bit for bit. The fixed grids of
// sim_fleet_test pin chosen corners; this walks the space between them.
// No safety property is asserted: the oracle, not the theorem, is the
// reference here.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cvsafe/adv/param_space.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/util/rng.hpp"

namespace {

using namespace cvsafe;

constexpr std::array<const char*, 4> kScenarios = {
    "left-turn", "lane-change", "intersection", "multi-vehicle"};
constexpr std::array<std::size_t, 4> kPools = {1, 3, 64, 8192};
// 70 episodes cross the 64-lane cohort boundary of one worker's pool.
constexpr std::array<std::size_t, 5> kEpisodes = {1, 4, 9, 16, 70};

struct Case {
  std::size_t index = 0;
  std::string scenario;
  bool monitored = true;  ///< compound planner (kappa_c) vs raw kappa_n
  bool nn = false;        ///< left turn: batched NN kappa_n vs expert
  fault::FaultPlan plan;
  double drop = 0.0;
  std::uint64_t seed = 0;
  sim::SeedPolicy policy = sim::SeedPolicy::kPaired;
  std::size_t episodes = 0;
  sim::FleetConfig fleet;
};

template <typename T, std::size_t N>
const T& pick(util::Rng& rng, const std::array<T, N>& values) {
  return values[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(N) - 1))];
}

Case draw_case(util::Rng& rng, std::size_t index) {
  static const adv::ParamSpace space;
  Case c;
  c.index = index;
  c.scenario = pick(rng, kScenarios);
  c.monitored = rng.bernoulli(0.75);
  c.nn = rng.bernoulli(0.5);
  std::array<double, adv::ParamSpace::kDim> x{};
  for (double& xi : x) xi = rng.uniform01();
  c.plan = space.decode(x);
  c.plan.seed = rng.next_u64();
  c.drop = rng.uniform(0.0, 0.5);
  c.seed = rng.next_u64() >> 16U;
  c.policy = rng.bernoulli(0.5) ? sim::SeedPolicy::kPaired
                                : sim::SeedPolicy::kDerived;
  c.episodes = pick(rng, kEpisodes);
  c.fleet.pool_capacity = pick(rng, kPools);
  c.fleet.threads = static_cast<std::size_t>(rng.uniform_int(1, 3));
  c.fleet.policy = c.policy;
  c.fleet.batched_sweeps = rng.bernoulli(0.5);
  return c;
}

std::string describe(const Case& c) {
  std::ostringstream os;
  os << "case " << c.index << ": scenario=" << c.scenario
     << " monitored=" << c.monitored << " nn=" << c.nn
     << " drop=" << c.drop << " seed=" << c.seed << " policy="
     << (c.policy == sim::SeedPolicy::kPaired ? "paired" : "derived")
     << " episodes=" << c.episodes << " pool=" << c.fleet.pool_capacity
     << " threads=" << c.fleet.threads
     << " batched_sweeps=" << c.fleet.batched_sweeps << "\nplan:\n"
     << c.plan.to_ini();
  return os.str();
}

/// The campaign's robustness posture around the drawn fault plan.
void apply_faults(sim::RunConfig& config, const Case& c) {
  config.comm = comm::CommConfig::delayed(c.drop, 0.25);
  config.faults = c.plan;
  config.gate = filter::GateConfig::hardened();
  config.ladder = core::LadderConfig{};
}

void expect_same_records(const std::vector<sim::FleetRecord>& fleet,
                         const std::vector<sim::FleetRecord>& oracle) {
  ASSERT_EQ(fleet.size(), oracle.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const sim::FleetRecord& f = fleet[i];
    const sim::FleetRecord& o = oracle[i];
    const bool same =
        std::bit_cast<std::uint64_t>(f.eta) ==
            std::bit_cast<std::uint64_t>(o.eta) &&
        std::bit_cast<std::uint64_t>(f.reach_time) ==
            std::bit_cast<std::uint64_t>(o.reach_time) &&
        f.steps == o.steps && f.emergency_steps == o.emergency_steps &&
        f.ladder_steps == o.ladder_steps &&
        f.ladder_transitions == o.ladder_transitions &&
        f.messages_accepted == o.messages_accepted &&
        f.messages_rejected == o.messages_rejected &&
        f.rejection_reasons == o.rejection_reasons &&
        f.collided == o.collided && f.reached == o.reached;
    if (!same) {
      ADD_FAILURE() << "episode " << i << " differs: fleet eta " << f.eta
                    << " steps " << f.steps << " emergency "
                    << f.emergency_steps << " accepted "
                    << f.messages_accepted << " rejected "
                    << f.messages_rejected << "; oracle eta " << o.eta
                    << " steps " << o.steps << " emergency "
                    << o.emergency_steps << " accepted "
                    << o.messages_accepted << " rejected "
                    << o.messages_rejected;
      return;
    }
  }
}

template <typename World>
std::vector<sim::FleetRecord> oracle_records(
    const sim::ScenarioAdapter<World>& adapter, const Case& c) {
  std::vector<sim::FleetRecord> records;
  records.reserve(c.episodes);
  for (std::size_t i = 0; i < c.episodes; ++i) {
    records.push_back(sim::record_from_result(
        sim::run_episode(adapter, sim::episode_seed(c.seed, i, c.policy))));
  }
  return records;
}

template <typename World>
void check_generic(const sim::ScenarioAdapter<World>& adapter,
                   const Case& c) {
  expect_same_records(
      sim::run_fleet_records(adapter, c.episodes, c.seed, c.fleet),
      oracle_records(adapter, c));
}

void check_case(const Case& c) {
  if (c.scenario == "left-turn") {
    sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
    apply_faults(config, c);
    sim::AgentBlueprint bp;
    bp.name = "differential";
    bp.scenario = config.make_scenario();
    bp.sensor = config.sensor;
    bp.config = c.monitored ? sim::AgentConfig::ultimate_compound()
                            : sim::AgentConfig::pure_nn();
    bp.config.gate = config.gate;
    bp.config.ladder = config.ladder;
    if (c.nn) {
      // An untrained network keeps the case cheap; plan_batch must match
      // plan() row for row whatever the weights.
      util::Rng net_rng(42);
      bp.net = std::make_shared<const nn::Mlp>(nn::MlpSpec{{4, 16, 16, 1}},
                                               net_rng);
    } else {
      bp.config.use_expert_planner = true;
    }
    const sim::LeftTurnAdapter adapter(config, bp);
    expect_same_records(sim::run_left_turn_fleet_records(
                            config, bp, c.episodes, c.seed, c.fleet),
                        oracle_records(adapter, c));
  } else if (c.scenario == "lane-change") {
    sim::LaneChangeSimConfig config;
    apply_faults(config, c);
    sim::LaneChangePlannerConfig planner;
    planner.use_compound = c.monitored;
    check_generic(sim::LaneChangeAdapter(config, planner), c);
  } else if (c.scenario == "intersection") {
    sim::IntersectionSimConfig config;
    apply_faults(config, c);
    check_generic(sim::IntersectionAdapter(config, c.monitored), c);
  } else {
    sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
    apply_faults(config, c);
    sim::MultiAgentSetup setup;
    setup.scenario = config.make_scenario();  // net == nullptr -> expert
    setup.use_compound = c.monitored;
    check_generic(
        sim::MultiVehicleAdapter(config, sim::MultiVehicleConfig{}, setup),
        c);
  }
}

TEST(SimFleetDifferential, FleetMatchesRunEpisodeOnRandomCases) {
  // Pinned schedule: the same cases on every run and every host.
  util::Rng rng(20231025);
  constexpr std::size_t kCases = 100;
  for (std::size_t index = 0; index < kCases; ++index) {
    const Case c = draw_case(rng, index);
    SCOPED_TRACE(describe(c));
    check_case(c);
    if (HasFailure()) return;
  }
}

}  // namespace
