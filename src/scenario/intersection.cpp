#include "cvsafe/scenario/intersection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cvsafe/util/kinematics.hpp"

namespace cvsafe::scenario {

using util::Interval;
using util::IntervalSet;

IntersectionScenario::IntersectionScenario(IntersectionGeometry geometry,
                                           vehicle::VehicleLimits ego,
                                           double dt_c)
    : geometry_(geometry), ego_(ego), dt_c_(dt_c) {
  assert(geometry_.valid());
  assert(ego_.valid());
  assert(dt_c_ > 0.0);
}

Interval IntersectionScenario::full_throttle_occupancy(double t, double p,
                                                       double v,
                                                       double front,
                                                       double back) const {
  if (p > back) return Interval::empty_interval();
  const double entry =
      p >= front ? t
                 : t + util::time_to_travel(front - p, v, ego_.a_max,
                                            ego_.v_max);
  const double exit = t + util::time_to_travel(back - p + 1e-3, v,
                                               ego_.a_max, ego_.v_max);
  return Interval{entry, exit};
}

std::optional<double> IntersectionScenario::next_stop_line(double p) const {
  if (p <= geometry_.zone_a_front) return geometry_.zone_a_front;
  if (p >= geometry_.zone_a_back && p <= geometry_.zone_b_front) {
    return geometry_.zone_b_front;  // holding in the median gap
  }
  return std::nullopt;  // inside one of the zones, or past zone B
}

bool IntersectionScenario::full_throttle_clear(
    double t, const vehicle::VehicleState& ego, const IntervalSet& tau_a,
    const IntervalSet& tau_b) const {
  // An empty window set cannot meet any occupancy, and zone B only
  // matters once zone A is clear, so occupancies are computed on demand.
  if (!tau_a.empty() &&
      tau_a.intersects(full_throttle_occupancy(
          t, ego.p, ego.v, geometry_.zone_a_front, geometry_.zone_a_back))) {
    return false;
  }
  return tau_b.empty() ||
         !tau_b.intersects(full_throttle_occupancy(
             t, ego.p, ego.v, geometry_.zone_b_front, geometry_.zone_b_back));
}

bool IntersectionScenario::resolvable(double t,
                                      const vehicle::VehicleState& ego,
                                      const IntervalSet& tau_a,
                                      const IntervalSet& tau_b) const {
  // Hold before the next stop line and wait: window sets only tighten
  // over time (set-membership estimates), so waiting eventually clears.
  // Both tests are pure; the cheap stopping slack goes first.
  if (const auto line = next_stop_line(ego.p)) {
    const double slack =
        *line - util::braking_distance(ego.v, ego_.a_min) - ego.p;
    if (slack >= 0.0) return true;
  }
  return full_throttle_clear(t, ego, tau_a, tau_b);
}

bool IntersectionScenario::in_zone_a(double p) const {
  return p > geometry_.zone_a_front && p < geometry_.zone_a_back;
}

bool IntersectionScenario::in_zone_b(double p) const {
  return p > geometry_.zone_b_front && p < geometry_.zone_b_back;
}

bool IntersectionScenario::in_unsafe_set(const IntersectionWorld& w) const {
  return !resolvable(w.t, w.ego, w.tau_a, w.tau_b);
}

bool IntersectionScenario::in_boundary_safe_set(
    const IntersectionWorld& w) const {
  if (w.ego.p > geometry_.zone_b_back) return false;  // crossing done
  if (!w.tau_a.first_point_after(w.t) && !w.tau_b.first_point_after(w.t)) {
    return false;  // all traffic certainly passed
  }
  // Best-effort containment when already unresolvable (should not be
  // reachable under compound control).
  if (!resolvable(w.t, w.ego, w.tau_a, w.tau_b)) return true;
  // One-step preimage of unresolvability over sampled feasible controls.
  constexpr int kSamples = 33;
  const double t_next = w.t + dt_c_;
  for (int i = 0; i < kSamples; ++i) {
    const double a =
        ego_.a_min + (ego_.a_max - ego_.a_min) * i / (kSamples - 1);
    const double cap = a >= 0.0 ? ego_.v_max : ego_.v_min;
    const vehicle::VehicleState next{
        w.ego.p + util::displacement_with_speed_cap(w.ego.v, a, dt_c_, cap),
        ego_.clamp_speed(util::speed_after(w.ego.v, a, dt_c_, cap))};
    if (!resolvable(t_next, next, w.tau_a, w.tau_b)) return true;
  }
  return false;
}

double IntersectionScenario::emergency_accel(
    const IntersectionWorld& w) const {
  // Committed with a clear full-throttle plan: execute it.
  if (full_throttle_clear(w.t, w.ego, w.tau_a, w.tau_b)) return ego_.a_max;
  // Otherwise stop before the next stop line with least braking.
  if (const auto line = next_stop_line(w.ego.p)) {
    const double gap = *line - w.ego.p;
    if (gap <= 1e-9) return w.ego.v <= 1e-9 ? 0.0 : ego_.a_min;
    return std::max(ego_.a_min, -(w.ego.v * w.ego.v) / (2.0 * gap));
  }
  // Inside a zone with no clear plan: escape forward as fast as possible
  // (last resort; unreachable under compound control from a safe start).
  return ego_.a_max;
}

IntersectionSafetyModel::IntersectionSafetyModel(
    std::shared_ptr<const IntersectionScenario> scenario)
    : scenario_(std::move(scenario)) {
  assert(scenario_ != nullptr);
}

bool IntersectionSafetyModel::in_unsafe_set(
    const IntersectionWorld& world) const {
  return scenario_->in_unsafe_set(world);
}

bool IntersectionSafetyModel::in_boundary_safe_set(
    const IntersectionWorld& world) const {
  return scenario_->in_boundary_safe_set(world);
}

double IntersectionSafetyModel::emergency_accel(
    const IntersectionWorld& world) const {
  return scenario_->emergency_accel(world);
}

std::string_view IntersectionSafetyModel::boundary_reason(
    const IntersectionWorld& world) const {
  if (scenario_->in_zone_a(world.ego.p)) return "inside near lane";
  if (scenario_->in_zone_b(world.ego.p)) return "inside far lane";
  return world.ego.p < scenario_->geometry().zone_a_front
             ? "before near lane"
             : "median gap";
}

}  // namespace cvsafe::scenario
