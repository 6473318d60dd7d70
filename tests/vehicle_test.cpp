#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"
#include "cvsafe/vehicle/trajectory.hpp"
#include "support/eager_profile.hpp"

namespace cvsafe::vehicle {
namespace {

const VehicleLimits kLimits{0.0, 15.0, -6.0, 3.0};

TEST(VehicleLimits, ClampAccel) {
  EXPECT_EQ(kLimits.clamp_accel(10.0), 3.0);
  EXPECT_EQ(kLimits.clamp_accel(-10.0), -6.0);
  EXPECT_EQ(kLimits.clamp_accel(1.5), 1.5);
}

TEST(VehicleLimits, Validity) {
  EXPECT_TRUE(kLimits.valid());
  EXPECT_FALSE((VehicleLimits{5.0, 1.0, -1.0, 1.0}).valid());
  EXPECT_FALSE((VehicleLimits{0.0, 10.0, 1.0, 2.0}).valid());
}

TEST(DoubleIntegrator, MatchesMatrixFormAwayFromLimits) {
  const DoubleIntegrator dyn(kLimits);
  const VehicleState s{0.0, 5.0};
  const VehicleState a = dyn.step(s, 1.0, 0.05);
  const VehicleState b = dyn.step_unsaturated(s, 1.0, 0.05);
  EXPECT_NEAR(a.p, b.p, 1e-12);
  EXPECT_NEAR(a.v, b.v, 1e-12);
  EXPECT_NEAR(b.p, 5.0 * 0.05 + 0.5 * 1.0 * 0.05 * 0.05, 1e-12);
  EXPECT_NEAR(b.v, 5.05, 1e-12);
}

TEST(DoubleIntegrator, SaturatesAtMaxSpeed) {
  const DoubleIntegrator dyn(kLimits);
  VehicleState s{0.0, 14.9};
  s = dyn.step(s, 3.0, 1.0);
  EXPECT_NEAR(s.v, 15.0, 1e-12);
  // Position: ramp to 15 in 1/30 s, then cruise.
  const double t_hit = 0.1 / 3.0;
  const double expected =
      14.9 * t_hit + 0.5 * 3.0 * t_hit * t_hit + 15.0 * (1.0 - t_hit);
  EXPECT_NEAR(s.p, expected, 1e-12);
}

TEST(DoubleIntegrator, StopsAtZero) {
  const DoubleIntegrator dyn(kLimits);
  VehicleState s{0.0, 2.0};
  s = dyn.step(s, -6.0, 1.0);
  EXPECT_NEAR(s.v, 0.0, 1e-12);
  EXPECT_NEAR(s.p, 2.0 * 2.0 / (2.0 * 6.0), 1e-12);  // v^2 / (2|a|)
  // Staying stopped under continued braking.
  s = dyn.step(s, -6.0, 1.0);
  EXPECT_NEAR(s.v, 0.0, 1e-12);
  EXPECT_NEAR(s.p, 1.0 / 3.0, 1e-12);
}

TEST(DoubleIntegrator, ClampsCommand) {
  const DoubleIntegrator dyn(kLimits);
  const VehicleState a = dyn.step({0.0, 5.0}, 100.0, 0.1);
  const VehicleState b = dyn.step({0.0, 5.0}, 3.0, 0.1);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.v, b.v);
}

// Property: many small steps == one large step under constant command
// (exact integration, not Euler).
TEST(DoubleIntegratorProperty, StepComposition) {
  const DoubleIntegrator dyn(kLimits);
  util::Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const double a = rng.uniform(-6.0, 3.0);
    VehicleState fine{rng.uniform(-20, 20), rng.uniform(0, 15)};
    VehicleState coarse = fine;
    for (int i = 0; i < 20; ++i) fine = dyn.step(fine, a, 0.05);
    coarse = dyn.step(coarse, a, 1.0);
    EXPECT_NEAR(fine.p, coarse.p, 1e-9);
    EXPECT_NEAR(fine.v, coarse.v, 1e-9);
  }
}

TEST(Trajectory, InterpolatesStates) {
  Trajectory traj;
  traj.push({0.0, {0.0, 1.0}, 0.0});
  traj.push({1.0, {2.0, 3.0}, 0.0});
  const VehicleState mid = traj.at(0.5);
  EXPECT_NEAR(mid.p, 1.0, 1e-12);
  EXPECT_NEAR(mid.v, 2.0, 1e-12);
  EXPECT_NEAR(traj.at(-1.0).p, 0.0, 1e-12);  // clamped
  EXPECT_NEAR(traj.at(9.0).p, 2.0, 1e-12);
}

TEST(Trajectory, FirstTimeAtPosition) {
  Trajectory traj;
  traj.push({0.0, {0.0, 10.0}, 0.0});
  traj.push({1.0, {10.0, 10.0}, 0.0});
  traj.push({2.0, {20.0, 10.0}, 0.0});
  EXPECT_NEAR(traj.first_time_at_position(5.0), 0.5, 1e-12);
  EXPECT_NEAR(traj.first_time_at_position(15.0), 1.5, 1e-12);
  EXPECT_LT(traj.first_time_at_position(25.0), 0.0);  // never reached
  EXPECT_NEAR(traj.first_time_at_position(-1.0), 0.0, 1e-12);
}

TEST(Trajectory, SeriesExtraction) {
  Trajectory traj;
  traj.push({0.0, {1.0, 2.0}, 0.0});
  traj.push({1.0, {3.0, 4.0}, 0.0});
  EXPECT_EQ(traj.positions(), (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(traj.velocities(), (std::vector<double>{2.0, 4.0}));
}

TEST(AccelProfile, ConstantProfile) {
  const auto p = AccelProfile::constant(5, 1.5);
  EXPECT_EQ(p.size(), 5u);
  EXPECT_EQ(p.at(0), 1.5);
  EXPECT_EQ(p.at(4), 1.5);
  EXPECT_EQ(p.at(100), 1.5);  // repeats last
}

// Property: random profiles respect the acceleration limits and keep the
// integrated speed inside the velocity limits.
TEST(AccelProfileProperty, RespectsLimits) {
  util::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const double v0 = rng.uniform(kLimits.v_min, kLimits.v_max);
    const auto profile =
        AccelProfile::random(400, 0.05, v0, kLimits, {}, rng);
    double v = v0;
    for (std::size_t i = 0; i < profile.size(); ++i) {
      const double a = profile.at(i);
      ASSERT_GE(a, kLimits.a_min - 1e-9);
      ASSERT_LE(a, kLimits.a_max + 1e-9);
      v += a * 0.05;
      ASSERT_GE(v, kLimits.v_min - 1e-9);
      ASSERT_LE(v, kLimits.v_max + 1e-9);
    }
  }
}

// Property: profiles vary across seeds (the workload is actually random).
TEST(AccelProfileProperty, VariesAcrossSeeds) {
  util::Rng rng1(1), rng2(2);
  const auto p1 = AccelProfile::random(100, 0.05, 8.0, kLimits, {}, rng1);
  const auto p2 = AccelProfile::random(100, 0.05, 8.0, kLimits, {}, rng2);
  EXPECT_NE(p1.values(), p2.values());
}

// --- Steps drawn only as far as they are read ---------------------------
// A random profile draws kEagerSteps steps when it is built and the rest
// on first read, from a private copy of the generator. Against the frozen
// eager draw (support/eager_profile.hpp) every read must give the same
// bits, whatever the read order, and the caller's generator must be left
// exactly where the eager draw leaves it.

constexpr std::size_t kP = AccelProfile::kEagerSteps;

/// Lengths around the prefix, and the intersection's 800-step horizon.
const std::size_t kLengths[] = {0, 1, kP - 1, kP, kP + 1, 2 * kP + 1, 800};

/// A walk shape other than the default (smoothing, jerk, bias).
const AccelProfileParams kShape{0.8, 1.5, 0.3};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// What at(i) must read: the last value repeats, an empty profile reads 0.
double expected_at(const std::vector<double>& ref, std::size_t i) {
  if (ref.empty()) return 0.0;
  return ref[std::min(i, ref.size() - 1)];
}

/// Calls \p check(profile, ref) for every length, walk shape, start
/// speed (14 m/s makes the v_max clip bite) and cached-deviate state of
/// the caller's generator on entry, after checking that construction
/// left the caller's generator where the eager draw leaves it.
template <typename Check>
void for_each_profile(Check&& check) {
  for (const std::size_t n : kLengths) {
    for (const AccelProfileParams& shape : {AccelProfileParams{}, kShape}) {
      for (const double v0 : {14.0, 3.0}) {
        for (const bool cached : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " smoothing=" << shape.smoothing
                       << " v0=" << v0 << " cached=" << cached);
          util::Rng lazy_rng(1000 + n), eager_rng(1000 + n);
          if (cached) {
            lazy_rng.normal();
            eager_rng.normal();
          }
          const AccelProfile profile =
              AccelProfile::random(n, 0.05, v0, kLimits, shape, lazy_rng);
          const std::vector<double> ref = profile_ref::eager_random(
              n, 0.05, v0, kLimits, shape, eager_rng);
          ASSERT_EQ(profile.size(), n);
          check(profile, ref);
          // Reading the tail never touches the caller's generator.
          EXPECT_EQ(bits(lazy_rng.normal()), bits(eager_rng.normal()));
          EXPECT_EQ(lazy_rng.next_u64(), eager_rng.next_u64());
          EXPECT_EQ(bits(lazy_rng.normal()), bits(eager_rng.normal()));
        }
      }
    }
  }
}

TEST(AccelProfileLazy, InOrderReadsMatchTheEagerDraw) {
  for_each_profile([](const AccelProfile& profile,
                      const std::vector<double>& ref) {
    for (std::size_t i = 0; i < ref.size() + 3; ++i) {
      ASSERT_EQ(bits(profile.at(i)), bits(expected_at(ref, i))) << "i=" << i;
    }
    EXPECT_EQ(profile.values(), ref);
  });
}

TEST(AccelProfileLazy, PastTheEndReadFirstThenBackwards) {
  for_each_profile([](const AccelProfile& profile,
                      const std::vector<double>& ref) {
    const std::size_t n = ref.size();
    EXPECT_EQ(bits(profile.at(n + 7)), bits(expected_at(ref, n + 7)));
    for (std::size_t i = n + 2; i-- > 0;) {
      ASSERT_EQ(bits(profile.at(i)), bits(expected_at(ref, i))) << "i=" << i;
    }
  });
}

TEST(AccelProfileLazy, JumpsAcrossThePrefixMatchTheEagerDraw) {
  for_each_profile([](const AccelProfile& profile,
                      const std::vector<double>& ref) {
    for (const std::size_t i : {kP + 1, std::size_t{3}, 2 * kP, kP - 1, kP,
                                std::size_t{799}, std::size_t{0}, kP + 2,
                                std::size_t{5000}}) {
      ASSERT_EQ(bits(profile.at(i)), bits(expected_at(ref, i))) << "i=" << i;
    }
    EXPECT_EQ(profile.values(), ref) << "values() draws the rest";
  });
}

// The intersection builds its cars back to back from one generator and
// draws a headway between them; their tails are read only later, and a
// profile moves into its traffic actor (and with the actor's vector)
// between reads.
TEST(AccelProfileLazy, TailsSurviveLaterDrawsAndMoves) {
  util::Rng lazy_rng(2024), eager_rng(2024);
  AccelProfile first = AccelProfile::random(800, 0.05, 9.0, kLimits, {},
                                            lazy_rng);
  const double headway = lazy_rng.uniform(20.0, 45.0);
  AccelProfile second = AccelProfile::random(800, 0.05, 12.0, kLimits, {},
                                             lazy_rng);
  const std::vector<double> ref_first =
      profile_ref::eager_random(800, 0.05, 9.0, kLimits, {}, eager_rng);
  EXPECT_EQ(bits(headway), bits(eager_rng.uniform(20.0, 45.0)));
  const std::vector<double> ref_second =
      profile_ref::eager_random(800, 0.05, 12.0, kLimits, {}, eager_rng);
  EXPECT_EQ(lazy_rng.next_u64(), eager_rng.next_u64());

  for (std::size_t i = 0; i < 800; ++i) {
    if (i == kP + 40) {
      AccelProfile moved = std::move(second);
      second = std::move(moved);
    }
    ASSERT_EQ(bits(second.at(i)), bits(ref_second[i])) << "i=" << i;
    ASSERT_EQ(bits(first.at(i)), bits(ref_first[i])) << "i=" << i;
  }
}

}  // namespace
}  // namespace cvsafe::vehicle
