#pragma once

#include "cvsafe/util/interval.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file reachability.hpp
/// Reachability analysis on stale information, Eq. 2 of the paper.
///
/// Given the last known state bounds of a vehicle at time t_k and its
/// actuation limits, the set of states it can occupy at time t > t_k is
/// bounded by applying maximum acceleration (saturating at v_max) for the
/// upper position bound and maximum braking (saturating at v_min) for the
/// lower one — exactly the branch structure of Eq. 2.

namespace cvsafe::filter {

/// Set-valued state of a vehicle at a given time.
struct StateBounds {
  double t = 0.0;
  util::Interval p;  ///< position bounds
  util::Interval v;  ///< velocity bounds

  /// Bounds collapsing to the exact state (e.g. from a V2V message).
  static StateBounds exact(double t, double p, double v);

  /// Bounds from a noisy reading: +-dp around p, +-dv around v, clipped to
  /// the physically possible velocity range.
  static StateBounds from_measurement(double t, double p, double v, double dp,
                                      double dv,
                                      const vehicle::VehicleLimits& limits);
};

/// Propagates \p bounds forward to time \p t (>= bounds.t) assuming any
/// acceleration within the vehicle's limits may be applied at any instant,
/// with velocity saturating at the limits (Eq. 2 and its velocity analog).
/// Propagating to t <= bounds.t returns the input unchanged.
StateBounds propagate(const StateBounds& bounds, double t,
                      const vehicle::VehicleLimits& limits);

}  // namespace cvsafe::filter
