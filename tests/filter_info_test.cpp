#include "cvsafe/filter/info_filter.hpp"

#include <gtest/gtest.h>

#include "cvsafe/comm/channel.hpp"
#include "cvsafe/filter/naive.hpp"
#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

namespace cvsafe::filter {
namespace {

const vehicle::VehicleLimits kLimits{2.0, 15.0, -3.0, 3.0};
const sensing::SensorConfig kSensor = sensing::SensorConfig::uniform(1.5, 0.1);

comm::Message msg(double t, double p, double v, double a) {
  return comm::Message{1, vehicle::VehicleSnapshot{t, {p, v}, a}};
}

TEST(InfoFilterOptions, Presets) {
  // Both stacks fuse messages and readings by reachability; the Kalman
  // filter (with message rollback) is what separates ultimate from basic.
  EXPECT_FALSE(InfoFilterOptions::basic().use_kalman);
  EXPECT_TRUE(InfoFilterOptions::ultimate().use_kalman);
}

TEST(InfoFilter, InvalidBeforeAnyInformation) {
  InformationFilter f(kLimits, kSensor, InfoFilterOptions::basic());
  EXPECT_FALSE(f.estimate(0.0).valid);
}

TEST(InfoFilter, MessageOnlyGivesReachabilityBounds) {
  InformationFilter f(kLimits, kSensor, InfoFilterOptions::basic());
  f.on_message(msg(0.0, -50.0, 8.0, 0.0));
  const auto est = f.estimate(1.0);
  ASSERT_TRUE(est.valid);
  // Eq. 2 bounds after 1 s from exact (p=-50, v=8).
  EXPECT_NEAR(est.p.hi, -50.0 + 8.0 + 1.5, 1e-9);
  EXPECT_NEAR(est.p.lo, -50.0 + 8.0 - 1.5, 1e-9);
  EXPECT_TRUE(est.p.contains(est.p_hat));
}

TEST(InfoFilter, SensorOnlyGivesInflatedBounds) {
  InformationFilter f(kLimits, kSensor, InfoFilterOptions::basic());
  f.on_sensor({0.0, -50.0, 8.0, 0.0});
  const auto est = f.estimate(0.0);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.p.width(), 2.0 * kSensor.delta_p, 1e-9);
}

TEST(InfoFilter, JoinIntersectsMessageAndSensor) {
  InformationFilter f(kLimits, kSensor, InfoFilterOptions::basic());
  f.on_message(msg(0.0, -50.0, 8.0, 0.0));
  f.on_sensor({0.0, -49.0, 8.5, 0.0});
  const auto est = f.estimate(0.0);
  ASSERT_TRUE(est.valid);
  // Message is exact at t=0: the join must collapse to (nearly) the
  // message value.
  EXPECT_NEAR(est.p.lo, -50.0, 1e-9);
  EXPECT_NEAR(est.p.hi, -50.0, 1e-9);
}

TEST(InfoFilter, FresherMessageWins) {
  InformationFilter f(kLimits, kSensor, InfoFilterOptions::basic());
  f.on_message(msg(1.0, -40.0, 9.0, 0.0));
  f.on_message(msg(0.5, -45.0, 9.0, 0.0));  // stale duplicate, out of order
  const auto est = f.estimate(1.0);
  EXPECT_NEAR(est.p_hat, -40.0, 1e-9);
}

TEST(InfoFilter, AccelerationFromFreshestSource) {
  InformationFilter f(kLimits, kSensor, InfoFilterOptions::basic());
  f.on_message(msg(0.0, -50.0, 8.0, 1.5));
  EXPECT_NEAR(f.estimate(0.0).a_hat, 1.5, 1e-12);
  f.on_sensor({0.5, -46.0, 8.5, -0.5});
  EXPECT_NEAR(f.estimate(0.5).a_hat, -0.5, 1e-12);
}

TEST(InfoFilter, UltimateTighterThanBasic) {
  // Run both estimators on an identical stream; the Kalman fusion must
  // (on average) yield narrower position intervals.
  util::Rng rng(5);
  vehicle::DoubleIntegrator dyn(kLimits);
  vehicle::VehicleState s{-55.0, 9.0};
  const double dt_c = 0.05;
  const auto steps = static_cast<std::size_t>(10.0 / dt_c);
  const auto profile =
      vehicle::AccelProfile::random(steps, dt_c, s.v, kLimits, {}, rng);

  InformationFilter basic(kLimits, kSensor, InfoFilterOptions::basic());
  InformationFilter ult(kLimits, kSensor, InfoFilterOptions::ultimate());
  sensing::Sensor sensor(kSensor);
  comm::Channel channel(comm::CommConfig::delayed(0.5, 0.25, 0.1));

  double width_basic = 0.0, width_ult = 0.0;
  int count = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    const double t = static_cast<double>(step) * dt_c;
    const double a = profile.at(step);
    const vehicle::VehicleSnapshot snap{t, s, a};
    channel.offer(comm::Message{1, snap}, rng);
    for (const auto& m : channel.collect(t)) {
      basic.on_message(m);
      ult.on_message(m);
    }
    if (const auto r = sensor.sense(snap, rng)) {
      basic.on_sensor(*r);
      ult.on_sensor(*r);
    }
    const auto eb = basic.estimate(t);
    const auto eu = ult.estimate(t);
    if (eb.valid && eu.valid) {
      width_basic += eb.p.width();
      width_ult += eu.p.width();
      ++count;
      // The truth must stay inside the basic (sound) bounds.
      ASSERT_TRUE(eb.p.inflated(1e-9).contains(s.p)) << "t=" << t;
    }
    s = dyn.step(s, a, dt_c);
  }
  ASSERT_GT(count, 100);
  EXPECT_LT(width_ult, width_basic);
}

// Property: the ultimate estimate's point prediction tracks the truth
// closely even when every message is lost (sensor-only operation).
TEST(InfoFilterProperty, SensorOnlyTracking) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    vehicle::DoubleIntegrator dyn(kLimits);
    vehicle::VehicleState s{-55.0, rng.uniform(6, 12)};
    const double dt_c = 0.05;
    const auto steps = static_cast<std::size_t>(8.0 / dt_c);
    const auto profile =
        vehicle::AccelProfile::random(steps, dt_c, s.v, kLimits, {}, rng);
    InformationFilter ult(kLimits, kSensor, InfoFilterOptions::ultimate());
    sensing::Sensor sensor(kSensor);

    double err = 0.0;
    int n = 0;
    for (std::size_t step = 0; step < steps; ++step) {
      const double t = static_cast<double>(step) * dt_c;
      const double a = profile.at(step);
      if (const auto r =
              sensor.sense(vehicle::VehicleSnapshot{t, s, a}, rng)) {
        ult.on_sensor(*r);
      }
      const auto est = ult.estimate(t);
      if (est.valid && t > 1.0) {
        err += std::abs(est.p_hat - s.p);
        ++n;
      }
      s = dyn.step(s, a, dt_c);
    }
    ASSERT_GT(n, 0);
    // Mean absolute error well under the raw sensor noise half-width.
    EXPECT_LT(err / n, kSensor.delta_p) << "seed " << seed;
  }
}

TEST(NaiveExtrapolator, ExtrapolatesConstantVelocity) {
  NaiveExtrapolator naive;
  EXPECT_FALSE(naive.estimate(0.0).valid);
  naive.on_message(msg(0.0, -50.0, 8.0, 1.0));
  const auto est = naive.estimate(0.3);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.p_hat, -50.0 + 8.0 * 0.3, 1e-9);
  EXPECT_NEAR(est.v_hat, 8.0, 1e-9);
  EXPECT_EQ(est.p.width(), 0.0);  // message content believed exactly
}

TEST(NaiveExtrapolator, PrefersFreshMessagesOverSensor) {
  // Exact V2V content wins over the noisy sensor while fresh enough.
  NaiveExtrapolator naive(1.0, 1.0, /*max_message_age=*/0.5);
  naive.on_message(msg(0.0, -50.0, 8.0, 0.0));
  naive.on_sensor({0.2, -47.9, 8.2, 0.1});
  const auto est = naive.estimate(0.3);
  EXPECT_NEAR(est.p_hat, -50.0 + 8.0 * 0.3, 1e-9);  // from the message
  EXPECT_EQ(est.p.width(), 0.0);
}

TEST(NaiveExtrapolator, FallsBackToSensorWhenMessagesStale) {
  NaiveExtrapolator naive(1.0, 0.5, /*max_message_age=*/0.5);
  naive.on_message(msg(0.0, -50.0, 8.0, 0.0));
  naive.on_sensor({1.0, -41.8, 8.2, 0.1});
  const auto est = naive.estimate(1.1);  // message is 1.1 s old: stale
  EXPECT_NEAR(est.p_hat, -41.8 + 8.2 * 0.1, 1e-9);
  // Sensor-based estimates carry the noise half-widths.
  EXPECT_NEAR(est.p.width(), 2.0, 1e-9);
  EXPECT_NEAR(est.v.width(), 1.0, 1e-9);
}

TEST(NaiveExtrapolator, MessageOnlyUsedWhenSensorAbsent) {
  NaiveExtrapolator naive(1.0, 1.0, 0.5);
  naive.on_message(msg(0.0, -50.0, 8.0, 0.0));
  // Even a stale message is better than nothing.
  const auto est = naive.estimate(3.0);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.p_hat, -50.0 + 24.0, 1e-9);
}

}  // namespace
}  // namespace cvsafe::filter
