#include "cvsafe/scenario/multi_vehicle.hpp"

#include <algorithm>
#include <cassert>

#include "cvsafe/scenario/safety_model.hpp"
#include "cvsafe/util/kinematics.hpp"

namespace cvsafe::scenario {

using util::Interval;
using util::IntervalSet;

MultiVehicleLeftTurn::MultiVehicleLeftTurn(
    std::shared_ptr<const LeftTurnScenario> base)
    : base_(std::move(base)) {
  assert(base_ != nullptr);
}

void MultiVehicleLeftTurn::conservative_windows(
    std::span<const filter::StateEstimate> oncoming, IntervalSet& tau) const {
  tau.clear();
  for (const auto& est : oncoming) {
    tau.insert(base_->c1_window_conservative(est));
  }
}

void MultiVehicleLeftTurn::aggressive_windows(
    std::span<const filter::StateEstimate> oncoming,
    const AggressiveBuffers& buffers, IntervalSet& tau) const {
  tau.clear();
  for (const auto& est : oncoming) {
    tau.insert(base_->c1_window_aggressive(est, buffers));
  }
}

Interval MultiVehicleLeftTurn::full_throttle_occupancy(double t, double p0,
                                                       double v0) const {
  const auto& g = base_->geometry();
  const auto& lim = base_->ego_limits();
  if (p0 > g.ego_back) return Interval::empty_interval();
  const double entry =
      p0 >= g.ego_front
          ? t
          : t + util::time_to_travel(g.ego_front - p0, v0, lim.a_max,
                                     lim.v_max);
  const double exit = t + util::time_to_travel(g.ego_back - p0 + 1e-3, v0,
                                               lim.a_max, lim.v_max);
  return Interval{entry, exit};
}

bool MultiVehicleLeftTurn::in_unsafe_set(double t, double p0, double v0,
                                         const IntervalSet& tau) const {
  if (base_->slack(p0, v0) >= 0.0) return false;
  return tau.intersects(base_->ego_passing_window(t, p0, v0));
}

bool MultiVehicleLeftTurn::resolvable(double t, double p0, double v0,
                                      const IntervalSet& tau) const {
  // The windows remaining at t, read in place: their first point,
  // whether they meet an interval, and their end, tau.max().
  const auto first_remaining = tau.first_point_after(t);
  if (!first_remaining) return true;
  const auto& g = base_->geometry();
  if (p0 > g.ego_back) return true;

  // (i) Pass ahead of every remaining window under full throttle.
  const Interval occupancy = full_throttle_occupancy(t, p0, v0);
  if (!tau.intersects_after(t, occupancy) &&
      occupancy.hi <= *first_remaining) {
    return true;
  }

  if (p0 >= g.ego_front) return false;  // inside: cannot delay

  // (ii) Delay entry past the last window under full braking.
  const auto& lim = base_->ego_limits();
  const double entry_mb =
      t + util::time_to_travel(g.ego_front - p0, v0, lim.a_min,
                               std::max(lim.v_min, 0.0));
  return entry_mb >= tau.max();
}

bool MultiVehicleLeftTurn::in_boundary_safe_set(double t, double p0,
                                                double v0,
                                                const IntervalSet& tau) const {
  if (!tau.first_point_after(t)) return false;
  const auto& g = base_->geometry();
  const auto& lim = base_->ego_limits();
  const double dt_c = base_->control_period();

  const auto step_to = [&](double a, double& p_next, double& v_next) {
    const double cap = a >= 0.0 ? lim.v_max : lim.v_min;
    p_next = p0 + util::displacement_with_speed_cap(v0, a, dt_c, cap);
    v_next = lim.clamp_speed(util::speed_after(v0, a, dt_c, cap));
  };
  constexpr int kAccelSamples = 33;
  const auto any_step_unresolvable = [&](bool require_commit) {
    for (int i = 0; i < kAccelSamples; ++i) {
      const double a =
          lim.a_min + (lim.a_max - lim.a_min) * i / (kAccelSamples - 1);
      double p_next;
      double v_next;
      step_to(a, p_next, v_next);
      if (require_commit && base_->slack(p_next, v_next) >= 0.0) continue;
      if (!resolvable(t + dt_c, p_next, v_next, tau)) return true;
    }
    return false;
  };

  if (p0 <= g.ego_front) {
    const double s = base_->slack(p0, v0);
    if (s < 0.0) return any_step_unresolvable(/*require_commit=*/false);
    const double margin = (v0 * dt_c + 0.5 * lim.a_max * dt_c * dt_c) *
                          (1.0 - lim.a_max / lim.a_min);
    if (s >= margin) return false;
    if (tau.intersects(base_->ego_passing_window(t, p0, v0))) return true;
    return any_step_unresolvable(/*require_commit=*/true);
  }

  if (p0 <= g.ego_back) {
    const double v_worst = std::max(v0 + lim.a_min * dt_c, lim.v_min);
    const double p_worst =
        p0 + std::max(0.0, v0 * dt_c + 0.5 * lim.a_min * dt_c * dt_c);
    const Interval tau0_worst = base_->ego_passing_window(
        t + dt_c, std::min(p_worst, g.ego_back), v_worst);
    return tau.intersects(tau0_worst);
  }

  return false;
}

double MultiVehicleLeftTurn::emergency_accel(double t, double p0, double v0,
                                             const IntervalSet& tau) const {
  const auto& g = base_->geometry();
  const auto& lim = base_->ego_limits();
  if (p0 > g.ego_front) return lim.a_max;

  const double s = base_->slack(p0, v0);
  if (s >= 0.0) {
    const double gap = g.ego_front - p0;
    if (gap <= 1e-9) return v0 <= 1e-9 ? 0.0 : lim.a_min;
    return std::max(lim.a_min, -(v0 * v0) / (2.0 * gap));
  }

  // Committed: full throttle when passing ahead of every remaining window
  // is the resolving strategy; otherwise brake and delay.
  const auto first_remaining = tau.first_point_after(t);
  if (!first_remaining) return lim.a_max;
  const Interval occupancy = full_throttle_occupancy(t, p0, v0);
  if (!tau.intersects_after(t, occupancy) &&
      occupancy.hi <= *first_remaining) {
    return lim.a_max;
  }
  return lim.a_min;
}

MultiVehicleSafetyModel::MultiVehicleSafetyModel(
    std::shared_ptr<const MultiVehicleLeftTurn> math,
    AggressiveBuffers buffers)
    : math_(std::move(math)), buffers_(buffers) {
  assert(math_ != nullptr);
}

bool MultiVehicleSafetyModel::in_unsafe_set(
    const LeftTurnMultiWorld& world) const {
  return math_->in_unsafe_set(world.t, world.ego.p, world.ego.v,
                              world.tau_monitor);
}

bool MultiVehicleSafetyModel::in_boundary_safe_set(
    const LeftTurnMultiWorld& world) const {
  return math_->in_boundary_safe_set(world.t, world.ego.p, world.ego.v,
                                     world.tau_monitor);
}

double MultiVehicleSafetyModel::emergency_accel(
    const LeftTurnMultiWorld& world) const {
  return math_->emergency_accel(world.t, world.ego.p, world.ego.v,
                                world.tau_monitor);
}

void MultiVehicleSafetyModel::shrink_for_planner(
    LeftTurnMultiWorld& world) const {
  math_->aggressive_windows(world.oncoming_nn, buffers_, world.tau_nn);
}

void MultiVehicleSafetyModel::bias_for_emergency(
    LeftTurnMultiWorld& world) const {
  world.tau_monitor.inflate(LeftTurnSafetyModel::kEmergencyBias);
}

FirstConflictAdapter::FirstConflictAdapter(
    std::shared_ptr<core::PlannerBase<LeftTurnWorld>> inner)
    : inner_(std::move(inner)),
      name_(std::string("first_conflict(") + std::string(inner_->name()) +
            ")") {
  assert(inner_ != nullptr);
}

double FirstConflictAdapter::plan(const LeftTurnMultiWorld& world) {
  LeftTurnWorld view;
  view.t = world.t;
  view.ego = world.ego;
  view.tau1_nn = world.tau_nn.first_part_after(world.t).value_or(
      Interval::empty_interval());
  view.tau1_monitor = view.tau1_nn;
  if (!world.oncoming_nn.empty()) view.c1_nn = world.oncoming_nn.front();
  return inner_->plan(view);
}

}  // namespace cvsafe::scenario
