#pragma once

#include <optional>

#include "cvsafe/util/contracts.hpp"

/// \file kinematics.hpp
/// Closed-form kinematic helpers shared by the reachability analysis
/// (Eq. 2 of the paper) and the passing-time-window estimation
/// (Eq. 7 / Eq. 8 of the paper).

namespace cvsafe::util {

/// Real roots of a x^2 + b x + c = 0, smaller first.
/// Returns nullopt when there is no real root. A (near-)linear equation
/// (|a| tiny) degrades to the single root (-c / b) reported twice.
struct QuadraticRoots {
  double lo = 0.0;
  double hi = 0.0;
};
std::optional<QuadraticRoots> solve_quadratic(double a, double b, double c);

/// Distance needed to brake from speed \p v to a stop with constant
/// deceleration \p a_min (a_min < 0):  d_b = -v^2 / (2 a_min).
double braking_distance(double v, double a_min);

/// True when the speed cap is already binding, i.e. accelerating toward the
/// cap has no effect because the current speed is at or past it.
inline bool cap_binding(double v, double a, double v_limit) {
  return (a > 0.0 && v >= v_limit) || (a < 0.0 && v <= v_limit);
}

/// Position advance after time \p dt starting at speed \p v with constant
/// acceleration \p a, where the speed saturates at \p v_limit
/// (the velocity-capped branch structure of Eq. 2):
///
///   if v + a dt stays within v_limit:   v dt + a dt^2 / 2
///   otherwise: accelerate until v_limit is hit, then cruise at v_limit.
///
/// Works for both upper caps (a > 0, v_limit >= v) and lower caps
/// (a < 0, v_limit <= v). When a == 0 the result is v dt.
///
/// Defined inline: every information filter's reachability propagation
/// runs this each control step.
inline double displacement_with_speed_cap(double v, double a, double dt,
                                          double v_limit) {
  CVSAFE_EXPECTS(dt >= 0.0, "displacement needs dt >= 0");
  // cvsafe-lint: allow(float-compare) exact zero-acceleration fast path
  if (a == 0.0 || cap_binding(v, a, v_limit)) {
    // Saturated (or no acceleration): pure cruise at the current speed.
    return v * dt;
  }
  const double t_hit = (v_limit - v) / a;  // > 0 since the cap is not binding
  if (t_hit >= dt) return v * dt + 0.5 * a * dt * dt;
  const double d_accel = v * t_hit + 0.5 * a * t_hit * t_hit;
  return d_accel + v_limit * (dt - t_hit);
}

/// Minimum time for a vehicle at speed \p v to travel distance \p d >= 0
/// while applying constant acceleration \p a until the speed cap
/// \p v_limit, then cruising (Eq. 7 structure with
/// d_th = (v_limit^2 - v^2) / (2a) as the accelerate-to-cap distance):
///
///   if d > d_th:  (v_limit - v)/a + (d - d_th)/v_limit
///   else:         (-v + sqrt(v^2 + 2 a d)) / a
///
/// Returns +infinity if the distance can never be covered (e.g. the vehicle
/// decelerates to a stop first). Handles a == 0 (pure cruise) and the
/// deceleration branch (a < 0, v_limit < v) symmetrically.
double time_to_travel(double d, double v, double a, double v_limit);

/// Speed after \p dt starting at \p v with constant acceleration \p a,
/// saturating at \p v_limit (same branch logic as
/// displacement_with_speed_cap).
inline double speed_after(double v, double a, double dt, double v_limit) {
  CVSAFE_EXPECTS(dt >= 0.0, "speed projection needs dt >= 0");
  // cvsafe-lint: allow(float-compare) exact zero-acceleration fast path
  if (a == 0.0 || cap_binding(v, a, v_limit)) return v;
  const double t_hit = (v_limit - v) / a;
  return (t_hit >= dt) ? v + a * dt : v_limit;
}

}  // namespace cvsafe::util
