#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file eager_profile.hpp
/// FROZEN copy of vehicle::AccelProfile::random as it was when it drew
/// every step of the horizon up front. It is the reference side of the
/// profile tests: a profile that draws its steps only as far as they are
/// read must give these values bit for bit and leave the caller's
/// generator exactly where this function leaves it.
///
/// Do not route this file through AccelProfile: its value is that it
/// does not share the code under test.

namespace cvsafe::profile_ref {

inline std::vector<double> eager_random(
    std::size_t num_steps, double dt, double v0,
    const vehicle::VehicleLimits& limits,
    const vehicle::AccelProfileParams& params, util::Rng& rng) {
  std::vector<double> accels;
  accels.reserve(num_steps);
  double a = 0.0;
  double v = v0;
  for (std::size_t i = 0; i < num_steps; ++i) {
    const double innovation = rng.normal(0.0, params.jerk_scale);
    a = params.smoothing * (a - params.bias) + params.bias +
        (1.0 - params.smoothing) * innovation * 4.0;
    a = limits.clamp_accel(a);
    const double a_hi = (limits.v_max - v) / dt;
    const double a_lo = (limits.v_min - v) / dt;
    a = std::clamp(a, std::max(limits.a_min, a_lo),
                   std::min(limits.a_max, a_hi));
    accels.push_back(a);
    v = limits.clamp_speed(v + a * dt);
  }
  return accels;
}

}  // namespace cvsafe::profile_ref
