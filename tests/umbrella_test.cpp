// The umbrella header must compile standalone and expose the whole API.

#include "cvsafe/cvsafe.hpp"

#include <gtest/gtest.h>

namespace cvsafe {
namespace {

TEST(Umbrella, ExposesEveryModule) {
  // One symbol per module proves the include set is complete.
  EXPECT_STREQ(core::version(), "1.0.0");
  const util::Interval iv{0.0, 1.0};
  EXPECT_TRUE(iv.contains(0.5));
  const util::IntervalSet ivs{{0.0, 1.0}};
  EXPECT_TRUE(ivs.contains(0.5));
  const vehicle::VehicleLimits limits{};
  EXPECT_TRUE(limits.valid());
  EXPECT_EQ(comm::CommConfig::no_disturbance().label(), "no disturbance");
  EXPECT_EQ(sensing::SensorConfig::uniform(1.0).delta_p, 1.0);
  EXPECT_FALSE(filter::NaiveExtrapolator{}.estimate(0.0).valid);
  EXPECT_EQ(nn::Matrix::identity(2)(0, 0), 1.0);
  const scenario::LeftTurnGeometry lt{};
  EXPECT_TRUE(lt.valid());
  const scenario::LaneChangeGeometry lc{};
  EXPECT_TRUE(lc.valid());
  const scenario::IntersectionGeometry ix{};
  EXPECT_TRUE(ix.valid());
  EXPECT_STREQ(planners::planner_style_name(
                   planners::PlannerStyle::kConservative),
               "conservative");
  EXPECT_EQ(sim::LeftTurnSimConfig::paper_defaults().dt_c, 0.05);
  verify::Certificate cert;
  EXPECT_TRUE(cert.holds());
}

}  // namespace
}  // namespace cvsafe
