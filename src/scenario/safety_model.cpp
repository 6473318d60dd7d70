#include "cvsafe/scenario/safety_model.hpp"

#include <cassert>

namespace cvsafe::scenario {

LeftTurnSafetyModel::LeftTurnSafetyModel(
    std::shared_ptr<const LeftTurnScenario> scenario,
    AggressiveBuffers buffers)
    : scenario_(std::move(scenario)), buffers_(buffers) {
  assert(scenario_ != nullptr);
}

bool LeftTurnSafetyModel::in_unsafe_set(const LeftTurnWorld& world) const {
  return scenario_->in_unsafe_set(world.t, world.ego.p, world.ego.v,
                                  world.tau1_monitor);
}

bool LeftTurnSafetyModel::in_boundary_safe_set(
    const LeftTurnWorld& world) const {
  return scenario_->in_boundary_safe_set(world.t, world.ego.p, world.ego.v,
                                         world.tau1_monitor);
}

double LeftTurnSafetyModel::emergency_accel(const LeftTurnWorld& world) const {
  return scenario_->emergency_accel(world.t, world.ego.p, world.ego.v,
                                    world.tau1_monitor);
}

void LeftTurnSafetyModel::shrink_for_planner(LeftTurnWorld& world) const {
  world.tau1_nn = scenario_->c1_window_aggressive(world.c1_nn, buffers_);
}

void LeftTurnSafetyModel::bias_for_emergency(LeftTurnWorld& world) const {
  if (!world.tau1_monitor.empty()) {
    world.tau1_monitor = world.tau1_monitor.inflated(kEmergencyBias);
  }
}

std::string_view LeftTurnSafetyModel::boundary_reason(
    const LeftTurnWorld& world) const {
  const auto& g = scenario_->geometry();
  if (world.ego.p > g.ego_front) return "inside zone";
  if (scenario_->slack(world.ego.p, world.ego.v) < 0.0) return "committed";
  return "slack band";
}

double LeftTurnSafetyModel::boundary_slack(const LeftTurnWorld& world) const {
  return scenario_->slack(world.ego.p, world.ego.v);
}

}  // namespace cvsafe::scenario
