#include "cvsafe/scenario/multi_vehicle.hpp"

#include <gtest/gtest.h>

#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/planners/expert.hpp"

namespace cvsafe::scenario {
namespace {

const vehicle::VehicleLimits kEgo{0.0, 15.0, -6.0, 3.0};
const vehicle::VehicleLimits kC1{2.0, 15.0, -3.0, 3.0};

std::shared_ptr<const LeftTurnScenario> base_scenario() {
  return std::make_shared<const LeftTurnScenario>(LeftTurnGeometry{}, kEgo,
                                                  kC1, 0.05);
}

filter::StateEstimate exact(double t, double p, double v, double a = 0.0) {
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

TEST(MultiVehicle, WindowsAreUnionOfPerVehicleWindows) {
  const MultiVehicleLeftTurn math(base_scenario());
  const std::vector<filter::StateEstimate> cars{
      exact(0.0, -50.0, 10.0), exact(0.0, -90.0, 10.0)};
  util::IntervalSet tau;
  math.conservative_windows(cars, tau);
  const auto w0 = math.base().c1_window_conservative(cars[0]);
  const auto w1 = math.base().c1_window_conservative(cars[1]);
  EXPECT_TRUE(tau.intersects(w0));
  EXPECT_TRUE(tau.intersects(w1));
  EXPECT_NEAR(tau.hull().lo, std::min(w0.lo, w1.lo), 1e-12);
  EXPECT_NEAR(tau.hull().hi, std::max(w0.hi, w1.hi), 1e-12);
}

TEST(MultiVehicle, SingleVehicleMatchesScalarScenario) {
  const auto base = base_scenario();
  const MultiVehicleLeftTurn math(base);
  const std::vector<filter::StateEstimate> one{exact(0.0, -50.0, 10.0)};
  util::IntervalSet tau;
  math.conservative_windows(one, tau);
  const auto scalar = base->c1_window_conservative(one[0]);
  ASSERT_EQ(tau.size(), 1u);
  EXPECT_EQ(tau[0], scalar);

  // Unsafe-set membership agrees with the scalar implementation.
  for (double p0 : {-20.0, -5.0, 0.0, 8.0}) {
    for (double v0 : {4.0, 10.0, 14.0}) {
      EXPECT_EQ(math.in_unsafe_set(0.0, p0, v0, tau),
                base->in_unsafe_set(0.0, p0, v0, scalar))
          << "p0=" << p0 << " v0=" << v0;
    }
  }
}

TEST(MultiVehicle, ResolvableAgainstUnion) {
  const MultiVehicleLeftTurn math(base_scenario());
  // Two windows: [5,7] and [10,12]. Fast ego clears before the first.
  const util::IntervalSet tau{{5.0, 7.0}, {10.0, 12.0}};
  EXPECT_TRUE(math.resolvable(0.0, 0.0, 14.0, tau));
  // Slow ego far away can delay past the last window (max brake stops it).
  EXPECT_TRUE(math.resolvable(0.0, -30.0, 3.0, tau));
  // Conservative: passing between the windows is NOT credited — an ego
  // that can only cross during the gap is reported unresolvable.
  // (crossing takes ~3 s from -10 at v=4 under full throttle)
  EXPECT_FALSE(math.resolvable(0.0, -0.5, 9.0, util::IntervalSet{
                                                    {0.5, 2.0}, {2.5, 30.0}}));
}

TEST(MultiVehicle, EmptyOrPassedWindowsAreSafe) {
  const MultiVehicleLeftTurn math(base_scenario());
  EXPECT_FALSE(math.in_boundary_safe_set(0.0, 0.0, 12.0, {}));
  const util::IntervalSet past{{0.5, 2.0}};
  EXPECT_FALSE(math.in_boundary_safe_set(5.0, 0.0, 12.0, past));
  EXPECT_TRUE(math.resolvable(5.0, 0.0, 12.0, past));
}

TEST(MultiVehicle, EmergencyMatchesScalarBeforeCommitment) {
  const auto base = base_scenario();
  const MultiVehicleLeftTurn math(base);
  const util::IntervalSet tau{{2.0, 6.0}};
  EXPECT_EQ(math.emergency_accel(0.0, -5.0, 6.0, tau),
            base->emergency_accel(0.0, -5.0, 6.0, util::Interval{2.0, 6.0}));
  EXPECT_EQ(math.emergency_accel(0.0, 8.0, 6.0, tau), kEgo.a_max);
}

TEST(FirstConflictAdapter, ShowsNearestUpcomingWindow) {
  const auto base = base_scenario();
  class Probe final : public core::PlannerBase<LeftTurnWorld> {
   public:
    double plan(const LeftTurnWorld& world) override {
      last = world.tau1_nn;
      return 0.0;
    }
    std::string_view name() const override { return "probe"; }
    util::Interval last;
  };
  auto probe = std::make_shared<Probe>();
  FirstConflictAdapter adapter(probe);

  LeftTurnMultiWorld world;
  world.t = 8.0;
  world.ego = {0.0, 5.0};
  world.tau_nn = util::IntervalSet{{2.0, 4.0}, {10.0, 12.0}};
  adapter.plan(world);
  // The [2,4] window has passed; the nearest upcoming one is [10,12].
  EXPECT_EQ(probe->last, (util::Interval{10.0, 12.0}));

  world.tau_nn = util::IntervalSet{};
  adapter.plan(world);
  EXPECT_TRUE(probe->last.empty());
}

// End-to-end safety: the compound planner never collides with ANY vehicle
// of the platoon, across disturbance settings and platoon sizes.
class MultiVehicleSafety
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(MultiVehicleSafety, NeverCollides) {
  const auto [num_oncoming, drop_prob] = GetParam();
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.horizon = 40.0;
  config.comm = comm::CommConfig::delayed(drop_prob, 0.25);

  sim::MultiVehicleConfig multi;
  multi.num_oncoming = num_oncoming;

  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();
  setup.net = nullptr;  // reckless analytic expert
  setup.expert_params = planners::ExpertParams::aggressive();

  std::size_t reached = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto r =
        sim::run_multi_left_turn_simulation(config, multi, setup, seed);
    ASSERT_FALSE(r.collided) << "seed " << seed;
    reached += r.reached ? 1 : 0;
  }
  // Liveness: the platoon eventually passes; most episodes reach.
  EXPECT_GT(reached, 40u);
}

INSTANTIATE_TEST_SUITE_P(
    PlatoonsAndDrops, MultiVehicleSafety,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}),
                       ::testing::Values(0.0, 0.6)));

}  // namespace
}  // namespace cvsafe::scenario
