#include "cvsafe/scenario/intersection.hpp"

#include <gtest/gtest.h>

#include "cvsafe/sim/intersection.hpp"

namespace cvsafe::scenario {
namespace {

const vehicle::VehicleLimits kEgo{0.0, 15.0, -6.0, 3.0};
constexpr double kDt = 0.05;

IntersectionScenario make_scenario() {
  return IntersectionScenario(IntersectionGeometry{}, kEgo, kDt);
}

IntersectionWorld world(double t, double p, double v,
                        util::IntervalSet tau_a = {},
                        util::IntervalSet tau_b = {}) {
  IntersectionWorld w;
  w.t = t;
  w.ego = {p, v};
  w.tau_a = std::move(tau_a);
  w.tau_b = std::move(tau_b);
  return w;
}

TEST(IntersectionGeometry, Defaults) {
  const IntersectionGeometry g;
  EXPECT_TRUE(g.valid());
  EXPECT_LT(g.zone_a_back, g.zone_b_front);
}

TEST(Intersection, ZonePredicates) {
  const auto scn = make_scenario();
  EXPECT_TRUE(scn.in_zone_a(12.0));
  EXPECT_FALSE(scn.in_zone_a(15.0));
  EXPECT_TRUE(scn.in_zone_b(18.0));
  EXPECT_FALSE(scn.in_zone_b(14.0));
}

TEST(Intersection, FullThrottleOccupancy) {
  const auto scn = make_scenario();
  const auto occ = scn.full_throttle_occupancy(0.0, 0.0, 10.0, 10.0, 14.0);
  ASSERT_FALSE(occ.empty());
  EXPECT_GT(occ.lo, 0.5);  // ~1 s to the near zone at ~10-12 m/s
  EXPECT_LT(occ.lo, 1.1);
  EXPECT_GT(occ.hi, occ.lo);
  // Past the zone: empty.
  EXPECT_TRUE(
      scn.full_throttle_occupancy(0.0, 15.0, 10.0, 10.0, 14.0).empty());
}

TEST(Intersection, ResolvableByClearPlanOrStopping) {
  const auto scn = make_scenario();
  // Windows far in the future: full throttle clears both.
  EXPECT_TRUE(scn.resolvable(world(0.0, 0.0, 10.0,
                                   util::IntervalSet{{20.0, 25.0}},
                                   util::IntervalSet{{20.0, 25.0}})));
  // Imminent windows but far away / slow: can stop before zone A.
  EXPECT_TRUE(scn.resolvable(world(0.0, -20.0, 8.0,
                                   util::IntervalSet{{0.5, 10.0}},
                                   util::IntervalSet{{0.5, 10.0}})));
  // Fast and close with active windows: cannot stop, cannot clear.
  EXPECT_FALSE(scn.resolvable(world(0.0, 6.0, 14.0,
                                    util::IntervalSet{{0.5, 10.0}},
                                    util::IntervalSet{{0.5, 10.0}})));
}

TEST(Intersection, MedianGapIsAHoldingPosition) {
  const auto scn = make_scenario();
  // Ego waiting in the gap between the lanes with the far lane blocked:
  // resolvable by holding before zone B.
  EXPECT_TRUE(scn.resolvable(world(0.0, 14.5, 0.0, {},
                                   util::IntervalSet{{0.5, 8.0}})));
  // And the boundary set lets it sit there (stopped: no control reaches
  // unresolvability in one step).
  EXPECT_TRUE(scn.in_boundary_safe_set(
      world(0.0, 15.9, 2.0, {}, util::IntervalSet{{0.5, 8.0}})));
}

TEST(Intersection, BoundaryFiresBeforeCommitmentIntoBlockedZones) {
  const auto scn = make_scenario();
  const util::IntervalSet blocked{{0.0, 30.0}};
  // Approaching fast with both lanes blocked: the one-step preimage must
  // fire before stopping becomes impossible.
  bool fired = false;
  vehicle::DoubleIntegrator dyn(kEgo);
  vehicle::VehicleState ego{-25.0, 12.0};
  for (int step = 0; step < 400; ++step) {
    const double t = step * kDt;
    const auto w = world(t, ego.p, ego.v, blocked, blocked);
    if (scn.in_boundary_safe_set(w)) {
      fired = true;
      ego = dyn.step(ego, scn.emergency_accel(w), kDt);
    } else {
      ego = dyn.step(ego, kEgo.a_max, kDt);  // reckless otherwise
    }
    ASSERT_LE(ego.p, scn.geometry().zone_a_front + 1e-6)
        << "entered the blocked near lane";
  }
  EXPECT_TRUE(fired);
  EXPECT_LT(ego.v, 0.2);  // held at the stop line
}

TEST(Intersection, EmergencyCommitsWhenPlanIsClear) {
  const auto scn = make_scenario();
  // Clear full-throttle plan: emergency accelerates.
  EXPECT_EQ(scn.emergency_accel(world(0.0, 8.0, 12.0,
                                      util::IntervalSet{{20.0, 22.0}}, {})),
            kEgo.a_max);
  // Blocked: least braking toward the stop line.
  const double a = scn.emergency_accel(
      world(0.0, 0.0, 10.0, util::IntervalSet{{0.5, 30.0}}, {}));
  EXPECT_NEAR(a, -(10.0 * 10.0) / (2.0 * 10.0), 1e-9);
}

// End-to-end: the compound-wrapped reckless planner never collides on
// either lane, across disturbance settings, while the raw planner does.
TEST(IntersectionSim, RawPlannerCollides) {
  sim::IntersectionSimConfig config;
  std::size_t collisions = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    collisions +=
        sim::run_intersection_simulation(config, false, seed).collided;
  }
  EXPECT_GT(collisions, 8u);
}

TEST(IntersectionSim, CompoundNeverCollides) {
  for (const bool disturbed : {false, true}) {
    sim::IntersectionSimConfig config;
    if (disturbed) {
      config.comm = comm::CommConfig::delayed(0.6, 0.25);
      config.sensor = sensing::SensorConfig::uniform(2.0);
    }
    for (std::uint64_t seed = 1; seed <= 80; ++seed) {
      const auto r = sim::run_intersection_simulation(config, true, seed);
      ASSERT_FALSE(r.collided) << "seed " << seed
                               << " disturbed=" << disturbed;
    }
  }
}

TEST(IntersectionSim, CompoundReachesAndIntervenes) {
  sim::IntersectionSimConfig config;
  const auto stats = sim::run_intersection_batch(config, true, 60, 1, 0);
  EXPECT_EQ(stats.safe_count, stats.n);
  EXPECT_GT(stats.reached_count, 50u);
  EXPECT_GT(stats.emergency_steps, 0u);
  EXPECT_GT(stats.mean_eta, 0.0);
}

TEST(IntersectionSim, DeterministicGivenSeed) {
  sim::IntersectionSimConfig config;
  const auto a = sim::run_intersection_simulation(config, true, 9);
  const auto b = sim::run_intersection_simulation(config, true, 9);
  EXPECT_EQ(a.reach_time, b.reach_time);
  EXPECT_EQ(a.emergency_steps, b.emergency_steps);
}

}  // namespace
}  // namespace cvsafe::scenario
