#include "cvsafe/filter/consistency.hpp"

#include <gtest/gtest.h>

#include "cvsafe/filter/kalman.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

namespace cvsafe::filter {
namespace {

TEST(NisMonitor, StartsClean) {
  NisMonitor m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_FALSE(m.diverged());
}

TEST(NisMonitor, ComputesNisValue) {
  NisMonitor m(1.0, 8.0, 1);
  // Unit covariance, innovation (3, 4): NIS = 25.
  const double nis = m.update({3.0, 4.0}, util::Mat2::identity());
  EXPECT_NEAR(nis, 25.0, 1e-12);
  EXPECT_NEAR(m.mean_nis(), 25.0, 1e-12);
}

TEST(NisMonitor, ScalesWithCovariance) {
  NisMonitor m(1.0, 8.0, 1);
  // Covariance 25 I with the same innovation: NIS = 1.
  EXPECT_NEAR(m.update({3.0, 4.0}, util::Mat2::identity() * 25.0), 1.0,
              1e-12);
}

TEST(NisMonitor, RespectsWarmup) {
  NisMonitor m(1.0, 8.0, /*warmup=*/5);
  for (int i = 0; i < 4; ++i) {
    m.update({10.0, 0.0}, util::Mat2::identity());
    EXPECT_FALSE(m.diverged());  // huge NIS but still warming up
  }
  m.update({10.0, 0.0}, util::Mat2::identity());
  EXPECT_TRUE(m.diverged());
}

TEST(NisMonitor, ResetClearsState) {
  NisMonitor m(1.0, 8.0, 1);
  m.update({10.0, 0.0}, util::Mat2::identity());
  EXPECT_TRUE(m.diverged());
  m.reset();
  EXPECT_EQ(m.count(), 0u);
  EXPECT_FALSE(m.diverged());
}

TEST(NisMonitor, ConsistentGaussianInnovationsStayCalm) {
  NisMonitor m(0.05, 8.0, 10);
  util::Rng rng(1);
  // Innovations drawn from the claimed covariance (diag(4, 1)).
  const util::Mat2 s = util::Mat2::diagonal(4.0, 1.0);
  for (int i = 0; i < 2000; ++i) {
    m.update({rng.normal(0.0, 2.0), rng.normal(0.0, 1.0)}, s);
  }
  EXPECT_FALSE(m.diverged());
  EXPECT_NEAR(m.mean_nis(), 2.0, 0.8);  // E[NIS] = measurement dim
}

TEST(KalmanNis, ConsistentFilterIsNotFlagged) {
  const vehicle::VehicleLimits limits{2.0, 15.0, -3.0, 3.0};
  KalmanFilter kf({0.1, 1.0, 1.0, 1.0, 3.0, 64});
  util::Rng rng(2);
  vehicle::DoubleIntegrator dyn(limits);
  vehicle::VehicleState s{-55.0, 9.0};
  const auto profile =
      vehicle::AccelProfile::random(300, 0.05, s.v, limits, {}, rng);
  sensing::Sensor sensor(sensing::SensorConfig::uniform(1.0, 0.1));
  for (std::size_t step = 0; step < 300; ++step) {
    const double t = static_cast<double>(step) * 0.05;
    if (const auto r = sensor.sense(
            vehicle::VehicleSnapshot{t, s, profile.at(step)}, rng)) {
      kf.update(*r);
    }
    s = dyn.step(s, profile.at(step), 0.05);
  }
  EXPECT_FALSE(kf.nis().diverged());
}

TEST(KalmanNis, GrosslyUnderstatedNoiseIsFlagged) {
  // Filter configured for delta = 0.05 while the true sensor noise is 3.0:
  // the claimed covariance is ~3600x too small -> NIS explodes.
  const vehicle::VehicleLimits limits{2.0, 15.0, -3.0, 3.0};
  KalmanFilter kf({0.1, 0.05, 0.05, 0.05, 3.0, 64});
  util::Rng rng(3);
  vehicle::DoubleIntegrator dyn(limits);
  vehicle::VehicleState s{-55.0, 9.0};
  const auto profile =
      vehicle::AccelProfile::random(300, 0.05, s.v, limits, {}, rng);
  sensing::Sensor sensor(sensing::SensorConfig::uniform(3.0, 0.1));
  for (std::size_t step = 0; step < 300; ++step) {
    const double t = static_cast<double>(step) * 0.05;
    if (const auto r = sensor.sense(
            vehicle::VehicleSnapshot{t, s, profile.at(step)}, rng)) {
      kf.update(*r);
    }
    s = dyn.step(s, profile.at(step), 0.05);
  }
  EXPECT_TRUE(kf.nis().diverged());
}

TEST(KalmanNis, RollbackResetsTheMonitor) {
  KalmanFilter kf({0.1, 1.0, 1.0, 1.0, 3.0, 64});
  kf.update({0.0, 0.0, 5.0, 0.0});
  kf.update({0.1, 0.5, 5.0, 0.0});
  EXPECT_GT(kf.nis().count(), 0u);
  kf.correct_with_message(0.2, 1.0, 5.0, 0.0);
  EXPECT_EQ(kf.nis().count(), 0u);
}

}  // namespace
}  // namespace cvsafe::filter
