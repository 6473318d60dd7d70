#pragma once

#include <memory>
#include <optional>

#include "cvsafe/core/safety_model.hpp"
#include "cvsafe/util/interval_set.hpp"
#include "cvsafe/vehicle/dynamics.hpp"
#include "cvsafe/vehicle/state.hpp"

/// \file intersection.hpp
/// Third case study: crossing a two-lane perpendicular road.
///
/// The paper motivates communication disturbance with intelligent
/// intersection management [12]; this scenario instantiates the framework
/// on that problem shape. The ego's path crosses TWO conflict zones in
/// sequence (the near lane and the far lane of the perpendicular road),
/// each of which may be occupied during a set of time windows (from the
/// estimates of that lane's traffic). The gap between the lanes is too
/// short to stop in, so the go/no-go decision must consider BOTH zones
/// jointly: pass ahead of everything under full throttle, or hold before
/// the first zone — partial commitment is not a strategy.
///
/// Structurally new relative to the left turn: sequential conflict zones
/// with joint resolvability; windows are IntervalSets per zone.

namespace cvsafe::scenario {

/// Geometry of the crossing (ego path coordinates).
struct IntersectionGeometry {
  double zone_a_front = 10.0;  ///< near lane entry
  double zone_a_back = 14.0;   ///< near lane exit
  double zone_b_front = 16.0;  ///< far lane entry
  double zone_b_back = 20.0;   ///< far lane exit
  double ego_start = -25.0;
  double ego_target = 28.0;

  bool valid() const {
    return ego_start < zone_a_front && zone_a_front < zone_a_back &&
           zone_a_back <= zone_b_front && zone_b_front < zone_b_back &&
           ego_target >= zone_b_back;
  }
};

/// World view: per-zone occupancy window sets from the monitor estimates.
struct IntersectionWorld {
  double t = 0.0;
  vehicle::VehicleState ego;
  util::IntervalSet tau_a;  ///< near-lane occupancy windows (sound)
  util::IntervalSet tau_b;  ///< far-lane occupancy windows (sound)

  /// Resets to a default-constructed world but keeps both window sets'
  /// storage, so refilling them each control step allocates nothing.
  void clear() {
    t = 0.0;
    ego = {};
    tau_a.clear();
    tau_b.clear();
  }
};

/// Safety mathematics of the two-zone crossing.
class IntersectionScenario {
 public:
  IntersectionScenario(IntersectionGeometry geometry,
                       vehicle::VehicleLimits ego, double dt_c);

  const IntersectionGeometry& geometry() const { return geometry_; }
  const vehicle::VehicleLimits& ego_limits() const { return ego_; }
  double control_period() const { return dt_c_; }

  /// Ego occupancy interval of [front, back] under full throttle from
  /// (p, v) at time t; empty when already past the zone.
  util::Interval full_throttle_occupancy(double t, double p, double v,
                                         double front, double back) const;

  /// Joint resolvability of the ego at time t against the window sets:
  /// full throttle clears BOTH zones outside their window sets, or the
  /// ego can still stop before the first uncleared zone (and wait —
  /// windows only tighten over time).
  bool resolvable(double t, const vehicle::VehicleState& ego,
                  const util::IntervalSet& tau_a,
                  const util::IntervalSet& tau_b) const;

  /// True iff the ego occupies zone A / zone B (the evaluation harness
  /// checks actual co-presence against the true traffic states).
  bool in_zone_a(double p) const;
  bool in_zone_b(double p) const;

  /// X_u estimate: committed past the stopping point of the first
  /// uncleared zone while full throttle cannot clear both.
  bool in_unsafe_set(const IntersectionWorld& w) const;

  /// Boundary safe set: one feasible control step could destroy
  /// resolvability (slack band of the first uncleared zone, or committed
  /// states where dawdling would slide the crossing into a window).
  bool in_boundary_safe_set(const IntersectionWorld& w) const;

  /// kappa_e: stop before the first uncleared zone while possible; commit
  /// at full throttle when the full-throttle plan is clear; brake as the
  /// last resort otherwise.
  double emergency_accel(const IntersectionWorld& w) const;

 private:
  /// Front line of the first zone the ego has not yet passed, or nullopt.
  std::optional<double> next_stop_line(double p) const;

  /// Full-throttle plan clear of both window sets.
  bool full_throttle_clear(double t, const vehicle::VehicleState& ego,
                           const util::IntervalSet& tau_a,
                           const util::IntervalSet& tau_b) const;

  IntersectionGeometry geometry_;
  vehicle::VehicleLimits ego_;
  double dt_c_;
};

/// SafetyModelBase adapter.
class IntersectionSafetyModel final
    : public core::SafetyModelBase<IntersectionWorld> {
 public:
  explicit IntersectionSafetyModel(
      std::shared_ptr<const IntersectionScenario> scenario);

  bool in_unsafe_set(const IntersectionWorld& world) const override;
  bool in_boundary_safe_set(const IntersectionWorld& world) const override;
  double emergency_accel(const IntersectionWorld& world) const override;
  std::string_view boundary_reason(
      const IntersectionWorld& world) const override;

 private:
  std::shared_ptr<const IntersectionScenario> scenario_;
};

}  // namespace cvsafe::scenario
