#include "cvsafe/filter/reachability.hpp"

#include <algorithm>

#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/kinematics.hpp"

namespace cvsafe::filter {

using util::Interval;

StateBounds StateBounds::exact(double t, double p, double v) {
  return StateBounds{t, Interval::point(p), Interval::point(v)};
}

StateBounds StateBounds::from_measurement(
    double t, double p, double v, double dp, double dv,
    const vehicle::VehicleLimits& limits) {
  CVSAFE_EXPECTS(dp >= 0.0 && dv >= 0.0,
                 "measurement error bounds must be non-negative");
  CVSAFE_EXPECTS(limits.valid(), "vehicle limits must be well-formed");
  Interval vi = Interval::centered(v, dv).intersect(
      Interval{limits.v_min, limits.v_max});
  if (vi.empty()) {
    // Measurement noise pushed the whole interval outside the physical
    // range; clamp to the nearest feasible speed.
    const double vc = std::clamp(v, limits.v_min, limits.v_max);
    vi = Interval::point(vc);
  }
  return StateBounds{t, Interval::centered(p, dp), vi};
}

StateBounds propagate(const StateBounds& bounds, double t,
                      const vehicle::VehicleLimits& limits) {
  CVSAFE_EXPECTS(limits.valid(), "vehicle limits must be well-formed");
  CVSAFE_EXPECTS(!bounds.p.empty() && !bounds.v.empty(),
                 "cannot propagate empty state bounds");
  const double dt = t - bounds.t;
  if (dt <= 0.0) return bounds;
  StateBounds out;
  out.t = t;
  // Upper bound: full throttle until v_max (first branch of Eq. 2), then
  // cruise (second branch). Lower bound: full braking until v_min.
  out.p = Interval{
      bounds.p.lo + util::displacement_with_speed_cap(bounds.v.lo,
                                                      limits.a_min, dt,
                                                      limits.v_min),
      bounds.p.hi + util::displacement_with_speed_cap(bounds.v.hi,
                                                      limits.a_max, dt,
                                                      limits.v_max)};
  out.v = Interval{
      util::speed_after(bounds.v.lo, limits.a_min, dt, limits.v_min),
      util::speed_after(bounds.v.hi, limits.a_max, dt, limits.v_max)};
  CVSAFE_ENSURES(!out.p.empty() && !out.v.empty(),
                 "propagation must preserve non-empty bounds");
  return out;
}

}  // namespace cvsafe::filter
