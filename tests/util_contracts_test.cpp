// The contracts layer itself: violation reporting in throw mode, message
// formatting, mode switching, and the contracts applied across the
// safety-critical chain (interval misuse, filter preconditions, planner
// wiring). Compile-out behaviour is covered separately by
// util_contracts_disabled_test.cpp, which builds with -DCVSAFE_NO_CONTRACTS.

#include "cvsafe/util/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/core/preimage.hpp"
#include "cvsafe/filter/kalman.hpp"
#include "cvsafe/filter/reachability.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/util/interval.hpp"
#include "cvsafe/util/interval_set.hpp"
#include "cvsafe/util/rng.hpp"
#include "cvsafe/util/thread_pool.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

namespace cvsafe::util {
namespace {

TEST(Contracts, ThrowModeRaisesContractViolation) {
  ScopedContractMode mode(ContractMode::kThrow);
  EXPECT_THROW(CVSAFE_EXPECTS(false, "must not hold"), ContractViolation);
  EXPECT_THROW(CVSAFE_ENSURES(1 + 1 == 3), ContractViolation);
  EXPECT_THROW(CVSAFE_ASSERT(false), ContractViolation);
}

TEST(Contracts, PassingChecksAreSilent) {
  ScopedContractMode mode(ContractMode::kThrow);
  EXPECT_NO_THROW(CVSAFE_EXPECTS(true));
  EXPECT_NO_THROW(CVSAFE_ENSURES(2 > 1, "arithmetic still works"));
  EXPECT_NO_THROW(CVSAFE_ASSERT(true, "fine"));
}

TEST(Contracts, MessageCarriesKindConditionAndLocation) {
  ScopedContractMode mode(ContractMode::kThrow);
  try {
    CVSAFE_EXPECTS(2 < 1, "two is not smaller");
    FAIL() << "contract did not fire";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos) << what;
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("util_contracts_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("two is not smaller"), std::string::npos) << what;
  }
}

TEST(Contracts, ScopedModeRestoresPrevious) {
  const ContractMode before = contract_mode();
  {
    ScopedContractMode mode(ContractMode::kThrow);
    EXPECT_EQ(contract_mode(), ContractMode::kThrow);
  }
  EXPECT_EQ(contract_mode(), before);
}

TEST(Contracts, ConditionEvaluatedExactlyOnce) {
  ScopedContractMode mode(ContractMode::kThrow);
  int evaluations = 0;
  CVSAFE_ASSERT(++evaluations > 0);
  EXPECT_EQ(evaluations, 1);
}

TEST(ContractsChain, IntervalMisuseFires) {
  ScopedContractMode mode(ContractMode::kThrow);
  EXPECT_THROW(Interval::centered(0.0, -1.0), ContractViolation);
  EXPECT_THROW(Interval::empty_interval().mid(), ContractViolation);
  EXPECT_THROW(Interval::empty_interval().clamp(0.0), ContractViolation);
  EXPECT_THROW(Interval::point(1.0).inflated(-0.5), ContractViolation);
  // NaN radii are not >= 0 either: NaN misuse is caught at the source.
  EXPECT_THROW(Interval::centered(0.0, std::nan("")), ContractViolation);
}

TEST(ContractsChain, IntervalSetMisuseFires) {
  ScopedContractMode mode(ContractMode::kThrow);
  const IntervalSet empty;
  EXPECT_THROW(empty.min(), ContractViolation);
  EXPECT_THROW(empty.max(), ContractViolation);
  EXPECT_THROW(empty[0], ContractViolation);
}

TEST(ContractsChain, KalmanPreconditionsFire) {
  ScopedContractMode mode(ContractMode::kThrow);
  filter::KalmanConfig bad_dt;
  bad_dt.dt = 0.0;
  EXPECT_THROW(filter::KalmanFilter{bad_dt}, ContractViolation);

  filter::KalmanConfig ok;
  filter::KalmanFilter fresh(ok);
  EXPECT_THROW(fresh.state_at(0.0), ContractViolation);

  filter::KalmanFilter filter(ok);
  filter.update(sensing::SensorReading{1.0, 0.0, 5.0, 0.0});
  // Time must not run backwards.
  EXPECT_THROW(filter.update(sensing::SensorReading{0.5, 0.0, 5.0, 0.0}),
               ContractViolation);
  // Rollback timestamps must be finite.
  EXPECT_THROW(filter.correct_with_message(
                   std::numeric_limits<double>::quiet_NaN(), 0.0, 5.0, 0.0),
               ContractViolation);
}

TEST(ContractsChain, SensorConfigBoundsFire) {
  ScopedContractMode mode(ContractMode::kThrow);
  EXPECT_NO_THROW(sensing::Sensor{sensing::SensorConfig{}});
  EXPECT_NO_THROW(sensing::Sensor{sensing::SensorConfig::uniform(0.0)});
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -0.1, inf, std::nan("")}) {
    EXPECT_THROW(sensing::Sensor{sensing::SensorConfig::uniform(1.0, bad)},
                 ContractViolation)
        << "period=" << bad;
  }
  for (double sensing::SensorConfig::*delta :
       {&sensing::SensorConfig::delta_p, &sensing::SensorConfig::delta_v,
        &sensing::SensorConfig::delta_a}) {
    for (const double bad : {-1.0, inf, std::nan("")}) {
      sensing::SensorConfig config;
      config.*delta = bad;
      EXPECT_THROW(sensing::Sensor{config}, ContractViolation)
          << "delta=" << bad;
    }
  }
}

TEST(ContractsChain, ReachabilityPreconditionsFire) {
  ScopedContractMode mode(ContractMode::kThrow);
  const vehicle::VehicleLimits limits{0.0, 15.0, -6.0, 3.0};
  EXPECT_THROW(filter::StateBounds::from_measurement(0.0, 0.0, 5.0, -1.0, 0.5,
                                                     limits),
               ContractViolation);
  filter::StateBounds empty_bounds;
  empty_bounds.p = Interval::empty_interval();
  EXPECT_THROW(filter::propagate(empty_bounds, 1.0, limits),
               ContractViolation);
  const vehicle::VehicleLimits bad{10.0, 5.0, -6.0, 3.0};  // v_min > v_max
  const auto sound = filter::StateBounds::exact(0.0, 0.0, 5.0);
  EXPECT_THROW(filter::propagate(sound, 1.0, bad), ContractViolation);
}

TEST(ContractsChain, DynamicsAndPoolPreconditionsFire) {
  ScopedContractMode mode(ContractMode::kThrow);
  const vehicle::VehicleLimits limits{0.0, 15.0, -6.0, 3.0};
  const vehicle::DoubleIntegrator dyn(limits);
  EXPECT_THROW(dyn.step(vehicle::VehicleState{0.0, 5.0}, 1.0, 0.0),
               ContractViolation);

  // A random profile's start speed must lie within the speed limits (the
  // walk's clip would otherwise drive it past a_min), and the limits must
  // be well-formed.
  Rng rng(1);
  const vehicle::VehicleLimits cross{2.0, 14.0, -3.0, 3.0};
  for (const double v0 : {17.0, 1.0, std::nan("")}) {
    EXPECT_THROW(vehicle::AccelProfile::random(10, 0.05, v0, cross, {}, rng),
                 ContractViolation)
        << "v0=" << v0;
  }
  const vehicle::VehicleLimits inverted{14.0, 2.0, -3.0, 3.0};
  EXPECT_THROW(vehicle::AccelProfile::random(10, 0.05, 8.0, inverted, {}, rng),
               ContractViolation);
  EXPECT_NO_THROW(vehicle::AccelProfile::random(10, 0.05, 14.0, cross, {},
                                                rng));

  EXPECT_THROW(parallel_for(4, nullptr, 2), ContractViolation);
}

TEST(ContractsChain, WorkerThreadCountIsBounded) {
  // An explicit worker count above kMaxWorkerThreads fails before any
  // thread starts, even where n = 1 would clamp it to one worker.
  ScopedContractMode mode(ContractMode::kThrow);
  std::size_t calls = 0;
  const auto body = [&calls](std::size_t) { ++calls; };
  EXPECT_THROW(parallel_for(1, body, kMaxWorkerThreads + 1),
               ContractViolation);
  EXPECT_EQ(calls, 0u);
  EXPECT_NO_THROW(parallel_for(1, body, kMaxWorkerThreads));
  EXPECT_EQ(calls, 1u);

  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.horizon = 2.0;
  sim::AgentBlueprint bp;
  bp.name = "expert";
  bp.scenario = config.make_scenario();
  bp.sensor = config.sensor;
  bp.config = sim::AgentConfig::basic_compound();
  bp.config.use_expert_planner = true;
  const sim::LeftTurnAdapter adapter(config, bp);
  sim::FleetConfig fleet;
  fleet.threads = kMaxWorkerThreads + 1;
  EXPECT_THROW(sim::run_fleet_records(adapter, 1, 1, fleet),
               ContractViolation);
  fleet.threads = kMaxWorkerThreads;
  EXPECT_EQ(sim::run_fleet_records(adapter, 1, 1, fleet).size(), 1u);
}

TEST(ContractsChain, TrafficStartSpeedRangesFire) {
  // Every adapter rejects, at construction, a traffic start-speed range
  // that is inverted or leaves its traffic's speed limits.
  ScopedContractMode mode(ContractMode::kThrow);
  const auto expect_rejected = [](double lo, double hi) {
    sim::IntersectionSimConfig intersection;  // cross_limits v in [2, 14]
    intersection.v_init_min = lo;
    intersection.v_init_max = hi;
    EXPECT_THROW(sim::IntersectionAdapter(intersection, true),
                 ContractViolation)
        << "intersection [" << lo << ", " << hi << "]";

    sim::LaneChangeSimConfig lane_change;  // c1_limits v in [3, 15]
    lane_change.c1_v_min = lo + 1.0;
    lane_change.c1_v_max = hi + 1.0;
    EXPECT_THROW(
        sim::LaneChangeAdapter(lane_change, sim::LaneChangePlannerConfig{}),
        ContractViolation)
        << "lane change [" << lo + 1.0 << ", " << hi + 1.0 << "]";

    sim::LeftTurnSimConfig left_turn =
        sim::LeftTurnSimConfig::paper_defaults();  // c1_limits v in [2, 15]
    left_turn.workload.v1_init_min = lo + 1.0;
    left_turn.workload.v1_init_max = hi + 1.0;
    sim::AgentBlueprint blueprint;
    blueprint.scenario = left_turn.make_scenario();
    EXPECT_THROW(sim::LeftTurnAdapter(left_turn, blueprint),
                 ContractViolation)
        << "left turn [" << lo + 1.0 << ", " << hi + 1.0 << "]";
    sim::MultiAgentSetup setup;
    setup.scenario = left_turn.make_scenario();
    EXPECT_THROW(
        sim::MultiVehicleAdapter(left_turn, sim::MultiVehicleConfig{}, setup),
        ContractViolation)
        << "multi-vehicle [" << lo + 1.0 << ", " << hi + 1.0 << "]";
  };
  expect_rejected(16.0, 18.0);  // above v_max
  expect_rejected(0.5, 6.0);    // below v_min
  expect_rejected(9.0, 7.0);    // inverted
  expect_rejected(std::nan(""), 7.0);
}

TEST(ContractsChain, LeftTurnTrafficNeedsScenarioAndStartGrid) {
  // The left-turn and multi-vehicle episodes draw their oncoming start
  // from workload.p1_grid and ask the blueprint's (setup's) scenario for
  // their limits: both adapters reject, at construction, an empty grid
  // (a default LeftTurnSimConfig has one) and a null scenario, and the
  // grid draw itself rejects the empty range it would be asked for.
  ScopedContractMode mode(ContractMode::kThrow);
  const sim::LeftTurnSimConfig paper = sim::LeftTurnSimConfig::paper_defaults();
  const sim::LeftTurnSimConfig no_grid;
  ASSERT_TRUE(no_grid.workload.p1_grid.empty());

  sim::AgentBlueprint blueprint;
  blueprint.scenario = paper.make_scenario();
  EXPECT_THROW(sim::LeftTurnAdapter(no_grid, blueprint), ContractViolation);
  EXPECT_THROW(sim::LeftTurnAdapter(paper, sim::AgentBlueprint{}),
               ContractViolation);
  EXPECT_NO_THROW(sim::LeftTurnAdapter(paper, blueprint));

  sim::MultiAgentSetup setup;
  setup.scenario = paper.make_scenario();
  EXPECT_THROW(
      sim::MultiVehicleAdapter(no_grid, sim::MultiVehicleConfig{}, setup),
      ContractViolation);
  EXPECT_THROW(sim::MultiVehicleAdapter(paper, sim::MultiVehicleConfig{},
                                        sim::MultiAgentSetup{}),
               ContractViolation);
  EXPECT_NO_THROW(
      sim::MultiVehicleAdapter(paper, sim::MultiVehicleConfig{}, setup));

  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(0, -1), ContractViolation);
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(ContractsChain, MultiVehicleNeedsOncomingTraffic) {
  // An empty platoon would run episodes with no oncoming vehicle at all.
  ScopedContractMode mode(ContractMode::kThrow);
  const sim::LeftTurnSimConfig config =
      sim::LeftTurnSimConfig::paper_defaults();
  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();
  sim::MultiVehicleConfig empty;
  empty.num_oncoming = 0;
  EXPECT_THROW(sim::MultiVehicleAdapter(config, empty, setup),
               ContractViolation);
  EXPECT_NO_THROW(
      sim::MultiVehicleAdapter(config, sim::MultiVehicleConfig{}, setup));
}

TEST(ContractsChain, PreimagePreconditionsFire) {
  ScopedContractMode mode(ContractMode::kThrow);
  EXPECT_THROW(core::sample_controls(1.0, -1.0, 5), ContractViolation);
  EXPECT_THROW(core::sample_controls(-1.0, 1.0, 1), ContractViolation);
  const core::PreimageGrid grid;
  EXPECT_THROW(
      core::compute_boundary_grid(grid, nullptr, nullptr, {0.0}),
      ContractViolation);
}

}  // namespace
}  // namespace cvsafe::util
