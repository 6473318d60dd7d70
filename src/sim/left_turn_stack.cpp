#include "cvsafe/sim/left_turn_stack.hpp"

#include <cassert>

#include "cvsafe/sim/engine.hpp"

namespace cvsafe::sim {

AgentConfig AgentConfig::pure_nn() {
  AgentConfig c;
  c.use_compound = false;
  c.use_info_filter = false;
  c.use_aggressive = false;
  return c;
}

AgentConfig AgentConfig::basic_compound() {
  AgentConfig c;
  c.use_compound = true;
  c.use_info_filter = false;
  c.use_aggressive = false;
  return c;
}

AgentConfig AgentConfig::ultimate_compound() {
  AgentConfig c;
  c.use_compound = true;
  c.use_info_filter = true;
  c.use_aggressive = true;
  return c;
}

void LeftTurnStack::setup(
    std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>> inner,
    const sensing::SensorConfig& sensor) {
  assert(scenario_ != nullptr);
  const auto& c1_limits = scenario_->oncoming_limits();

  // Estimator feeding the embedded planner.
  if (config_.use_info_filter) {
    auto nn_filter = std::make_unique<filter::InformationFilter>(
        c1_limits, sensor, filter::InfoFilterOptions::ultimate(),
        config_.gate);
    nn_filter_ = nn_filter.get();
    nn_estimator_ = std::move(nn_filter);
  } else {
    nn_estimator_ = std::make_unique<filter::NaiveExtrapolator>(
        sensor.delta_p, sensor.delta_v);
  }

  // Estimator feeding the runtime monitor: ALWAYS sound set bounds
  // (reachability on messages and raw sensor readings). The paper joins
  // the Kalman confidence interval into the monitor's estimate as well;
  // we deliberately keep the monitor free of probabilistic intervals —
  // a 3-sigma band occasionally excludes the true state, and a monitor
  // built on it cannot support the safety guarantee (DESIGN.md).
  if (config_.use_compound) {
    auto monitor_filter = std::make_unique<filter::InformationFilter>(
        c1_limits, sensor, filter::InfoFilterOptions::basic(),
        config_.gate);
    monitor_filter_ = monitor_filter.get();
    monitor_estimator_ = std::move(monitor_filter);
  }

  if (config_.use_compound) {
    auto model = std::make_shared<scenario::LeftTurnSafetyModel>(
        scenario_, config_.buffers);
    auto compound =
        std::make_shared<core::CompoundPlanner<scenario::LeftTurnWorld>>(
            std::move(inner), std::move(model),
            core::CompoundOptions{config_.use_aggressive});
    compound_ = compound.get();
    planner_ = std::move(compound);
    if (config_.ladder) compound_->enable_degradation(*config_.ladder);
  } else {
    planner_ = std::move(inner);
  }
}

LeftTurnStack::LeftTurnStack(
    std::shared_ptr<const scenario::LeftTurnScenario> scenario,
    std::shared_ptr<const nn::Mlp> net, sensing::SensorConfig sensor,
    AgentConfig config)
    : scenario_(std::move(scenario)), config_(config) {
  std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>> inner;
  if (config_.use_expert_planner) {
    inner = std::make_shared<planners::ExpertPlanner>(
        scenario_, config_.expert_params, "expert");
  } else {
    assert(net != nullptr && "NN stack requires a trained network");
    inner = std::make_shared<planners::NnPlanner>(
        std::move(net), planners::InputEncoding{}, "nn");
  }
  setup(std::move(inner), sensor);
}

LeftTurnStack::LeftTurnStack(
    std::shared_ptr<const scenario::LeftTurnScenario> scenario,
    std::vector<std::shared_ptr<const nn::Mlp>> ensemble,
    sensing::SensorConfig sensor, AgentConfig config)
    : scenario_(std::move(scenario)), config_(config) {
  assert(!ensemble.empty());
  auto inner = std::make_shared<planners::EnsemblePlanner>(
      std::move(ensemble), planners::InputEncoding{}, "ensemble",
      config_.ensemble_sigma_penalty);
  setup(std::move(inner), sensor);
}

void LeftTurnStack::bind_fleet(FleetStackContext& ctx) {
  for (filter::InformationFilter* f : {nn_filter_, monitor_filter_}) {
    if (f != nullptr) f->bind_fleet(ctx.estimator);
  }
  if (compound_ != nullptr && config_.ladder) {
    compound_->rebind_ladder_pooled(ctx.ladder);
  }
}

void LeftTurnStack::stage_sweeps(double t, filter::ReachSweep& reach) {
  for (filter::InformationFilter* f : {nn_filter_, monitor_filter_}) {
    if (f != nullptr) f->stage_sweeps(t, reach);
  }
}

void LeftTurnStack::observe_sensor(const sensing::SensorReading& reading) {
  nn_estimator_->on_sensor(reading);
  if (monitor_estimator_) monitor_estimator_->on_sensor(reading);
}

void LeftTurnStack::observe_message(const comm::Message& msg) {
  nn_estimator_->on_message(msg);
  if (monitor_estimator_) monitor_estimator_->on_message(msg);
}

void LeftTurnStack::build_world(scenario::LeftTurnWorld& world) {
  world.c1_nn = nn_estimator_->estimate(world.t);
  world.tau1_nn = scenario_->c1_window_conservative(world.c1_nn);
  if (monitor_estimator_) {
    world.c1_monitor = monitor_estimator_->estimate(world.t);
    world.tau1_monitor = scenario_->c1_window_conservative(world.c1_monitor);
  }
  if (compound_ != nullptr && compound_->has_ladder() &&
      monitor_filter_ != nullptr) {
    compound_->note_signals(degradation_signals(*monitor_filter_, world.t));
  }
}

double LeftTurnStack::act(double t, const vehicle::VehicleState& ego) {
  scenario::LeftTurnWorld world;
  world.t = t;
  world.ego = ego;
  build_world(world);
  return planner_->plan(world);
}

bool LeftTurnStack::last_was_emergency() const {
  return compound_ != nullptr && compound_->last_was_emergency();
}

core::MonitorStats LeftTurnStack::monitor_stats() const {
  return compound_ != nullptr ? compound_->stats() : core::MonitorStats{};
}

std::vector<core::SwitchEvent> LeftTurnStack::switch_events() const {
  return compound_ != nullptr ? compound_->switch_events()
                              : std::vector<core::SwitchEvent>{};
}

void LeftTurnStack::attach_recorder(obs::Recorder* recorder) {
  if (compound_ != nullptr) compound_->set_recorder(recorder);
  for (filter::InformationFilter* f : {nn_filter_, monitor_filter_}) {
    if (f != nullptr) f->set_recorder(recorder);
  }
}

std::array<std::size_t, 4> LeftTurnStack::message_reasons() const {
  std::array<std::size_t, 4> reasons{};
  for (const filter::InformationFilter* f : {nn_filter_, monitor_filter_}) {
    if (f == nullptr) continue;
    const filter::RejectionCounters& c = f->rejections();
    reasons[0] += c.non_finite;
    reasons[1] += c.out_of_range;
    reasons[2] += c.stale;
    reasons[3] += c.implausible;
  }
  return reasons;
}

std::pair<std::size_t, std::size_t> LeftTurnStack::message_tally() const {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const filter::InformationFilter* f : {nn_filter_, monitor_filter_}) {
    if (f == nullptr) continue;
    accepted += f->rejections().accepted;
    rejected += f->rejections().total_rejected();
  }
  return {accepted, rejected};
}

}  // namespace cvsafe::sim
