// The safety backbone of the framework (Section III-E):
//  * Eq. 4 — from any boundary-safe state, one emergency step stays safe;
//  * the closed-form X_b margin of Section IV over-approximates the
//    one-step slack loss;
//  * the SafetyModel adapter and the aggressive shrink.

#include <gtest/gtest.h>

#include "cvsafe/scenario/safety_model.hpp"
#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

namespace cvsafe::scenario {
namespace {

const vehicle::VehicleLimits kEgo{0.0, 15.0, -6.0, 3.0};
const vehicle::VehicleLimits kC1{2.0, 15.0, -3.0, 3.0};
constexpr double kDt = 0.05;

std::shared_ptr<const LeftTurnScenario> make_scenario() {
  return std::make_shared<const LeftTurnScenario>(LeftTurnGeometry{}, kEgo,
                                                  kC1, kDt);
}

filter::StateEstimate exact_estimate(double t, double p, double v,
                                     double a = 0.0) {
  filter::StateEstimate est;
  est.t = t;
  est.p = util::Interval::point(p);
  est.v = util::Interval::point(v);
  est.p_hat = p;
  est.v_hat = v;
  est.a_hat = a;
  est.valid = true;
  return est;
}

// Eq. 4 swept over a dense grid of boundary states before the zone:
// applying kappa_e for one control step never lands in the unsafe set,
// even against a permanent conflict window (the window only gates whether
// emergency triggers, not whether braking succeeds).
TEST(EmergencyEq4, OneStepFromBoundaryStaysSafe) {
  const auto scn = make_scenario();
  const vehicle::DoubleIntegrator dyn(kEgo);
  const util::Interval always{0.0, 1e9};  // permanent conflict

  for (double p0 = -30.0; p0 <= scn->geometry().ego_front; p0 += 0.05) {
    for (double v0 = 0.0; v0 <= 15.0; v0 += 0.25) {
      if (scn->slack(p0, v0) < 0.0) continue;  // committed states: below
      if (!scn->in_boundary_safe_set(0.0, p0, v0, always)) continue;
      const double a_e = scn->emergency_accel(0.0, p0, v0, always);
      const auto next = dyn.step({p0, v0}, a_e, kDt);
      EXPECT_FALSE(scn->in_unsafe_set(kDt, next.p, next.v, always))
          << "p0=" << p0 << " v0=" << v0 << " a_e=" << a_e
          << " -> p=" << next.p << " v=" << next.v;
    }
  }
}

// Eq. 4 for the inside-zone completion: from any *reachable* boundary
// state inside the zone (not currently unsafe, i.e. the ego would clear
// before the window opens), the full-throttle escape keeps it that way.
TEST(EmergencyEq4, InsideZoneEscapeStaysSafe) {
  const auto scn = make_scenario();
  const vehicle::DoubleIntegrator dyn(kEgo);
  util::Rng rng(7);
  int tested = 0;
  for (int trial = 0; trial < 50000 && tested < 2000; ++trial) {
    const double p0 =
        rng.uniform(scn->geometry().ego_front + 0.01,
                    scn->geometry().ego_back - 0.01);
    const double v0 = rng.uniform(0.5, 15.0);
    const util::Interval tau1{rng.uniform(0.0, 8.0), rng.uniform(0.0, 16.0)};
    if (tau1.empty()) continue;
    if (scn->in_unsafe_set(0.0, p0, v0, tau1)) continue;   // doomed already
    if (!scn->in_boundary_safe_set(0.0, p0, v0, tau1)) continue;
    ++tested;
    const double a_e = scn->emergency_accel(0.0, p0, v0, tau1);
    EXPECT_EQ(a_e, kEgo.a_max);
    const auto next = dyn.step({p0, v0}, a_e, kDt);
    EXPECT_FALSE(scn->in_unsafe_set(kDt, next.p, next.v, tau1))
        << "p0=" << p0 << " v0=" << v0 << " tau1=[" << tau1.lo << ","
        << tau1.hi << "]";
  }
  EXPECT_GT(tested, 100);
}

// Stronger: from any boundary state before the zone, *sustained* emergency
// control keeps the vehicle out of the zone forever.
TEST(EmergencyEq4, SustainedEmergencyNeverEntersZone) {
  const auto scn = make_scenario();
  const vehicle::DoubleIntegrator dyn(kEgo);
  const util::Interval always{0.0, 1e9};
  util::Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    double p0 = rng.uniform(-30.0, 5.0);
    double v0 = rng.uniform(0.0, 15.0);
    if (scn->slack(p0, v0) < 0.0) continue;  // committed: entry legitimate
    if (!scn->in_boundary_safe_set(0.0, p0, v0, always)) continue;
    for (int step = 0; step < 400; ++step) {
      const auto next = dyn.step(
          {p0, v0}, scn->emergency_accel(step * kDt, p0, v0, always), kDt);
      p0 = next.p;
      v0 = next.v;
      ASSERT_LE(p0, scn->geometry().ego_front + 1e-6)
          << "entered the zone under sustained emergency control";
    }
  }
}

// The closed-form margin of Section IV: one step of ANY feasible control
// from a non-boundary safe state (s >= margin) cannot make the slack
// negative.
TEST(BoundaryMargin, OverApproximatesOneStepSlackLoss) {
  const auto scn = make_scenario();
  const vehicle::DoubleIntegrator dyn(kEgo);
  util::Rng rng(5);
  for (int trial = 0; trial < 20000; ++trial) {
    const double p0 = rng.uniform(-30.0, 5.0);
    const double v0 = rng.uniform(0.0, 15.0);
    const double s = scn->slack(p0, v0);
    const double margin = (v0 * kDt + 0.5 * kEgo.a_max * kDt * kDt) *
                          (1.0 - kEgo.a_max / kEgo.a_min);
    if (s < margin) continue;  // boundary or unsafe-slack state
    const double a = rng.uniform(kEgo.a_min, kEgo.a_max);
    const auto next = dyn.step({p0, v0}, a, kDt);
    EXPECT_GE(scn->slack(next.p, next.v), -1e-9)
        << "p0=" << p0 << " v0=" << v0 << " a=" << a;
  }
}

TEST(SafetyModel, DelegatesToScenario) {
  const auto scn = make_scenario();
  const LeftTurnSafetyModel model(scn);

  LeftTurnWorld world;
  world.t = 0.0;
  world.ego = {0.0, 12.0};  // negative slack at v=12
  world.tau1_monitor = util::Interval{0.3, 2.0};
  EXPECT_EQ(model.in_unsafe_set(world),
            scn->in_unsafe_set(0.0, 0.0, 12.0, world.tau1_monitor));
  EXPECT_EQ(model.in_boundary_safe_set(world),
            scn->in_boundary_safe_set(0.0, 0.0, 12.0, world.tau1_monitor));
  EXPECT_EQ(model.emergency_accel(world),
            scn->emergency_accel(0.0, 0.0, 12.0, world.tau1_monitor));
}

TEST(SafetyModel, ShrinkReplacesNnWindowOnly) {
  const auto scn = make_scenario();
  const LeftTurnSafetyModel model(scn, AggressiveBuffers{0.5, 1.0});

  LeftTurnWorld world;
  world.t = 0.0;
  world.ego = {-20.0, 8.0};
  world.c1_nn = exact_estimate(0.0, -50.0, 10.0, 0.0);
  world.tau1_monitor = scn->c1_window_conservative(world.c1_nn);
  world.tau1_nn = world.tau1_monitor;

  LeftTurnWorld shrunk = world;
  model.shrink_for_planner(shrunk);
  // Monitor window untouched; NN window replaced by the aggressive one.
  EXPECT_EQ(shrunk.tau1_monitor, world.tau1_monitor);
  EXPECT_LT(shrunk.tau1_nn.width(), world.tau1_nn.width());
  EXPECT_TRUE(world.tau1_nn.inflated(1e-9).contains(shrunk.tau1_nn));
}

// The monitor boundary test catches fast approaches but leaves plenty of
// room for normal driving: far away with moderate speed is never boundary.
TEST(BoundarySet, FarAwayIsNotBoundary) {
  const auto scn = make_scenario();
  const util::Interval tau1{2.0, 6.0};
  EXPECT_FALSE(scn->in_boundary_safe_set(0.0, -30.0, 8.0, tau1));
}

TEST(BoundarySet, TriggersJustBeforeSlackTurnsNegative) {
  const auto scn = make_scenario();
  const util::Interval always{0.0, 1e9};
  const double v0 = 12.0;
  const double d_b = v0 * v0 / 12.0;  // 12 m
  // s = 5 - 12 - p0: slack hits 0 at p0 = -7.
  EXPECT_TRUE(scn->in_boundary_safe_set(0.0, -7.0, v0, always));
  EXPECT_FALSE(scn->in_boundary_safe_set(0.0, -8.0, v0, always));
  (void)d_b;
}

TEST(BoundarySet, InsideZoneBrakeRiskTriggers) {
  const auto scn = make_scenario();
  // Ego slowly crossing the zone while the oncoming window is imminent:
  // braking could stretch the occupancy into the window.
  EXPECT_TRUE(
      scn->in_boundary_safe_set(0.0, 10.0, 2.0, util::Interval{1.0, 5.0}));
  // Fast crossing with the window far away: safe.
  EXPECT_FALSE(
      scn->in_boundary_safe_set(0.0, 14.5, 15.0, util::Interval{8.0, 9.0}));
}

}  // namespace
}  // namespace cvsafe::scenario
