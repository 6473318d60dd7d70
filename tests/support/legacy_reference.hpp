#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/core/evaluation.hpp"
#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/filter/naive.hpp"
#include "cvsafe/planners/ensemble.hpp"
#include "cvsafe/planners/expert.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/scenario/multi_vehicle.hpp"
#include "cvsafe/scenario/safety_model.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/util/kinematics.hpp"
#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file legacy_reference.hpp
/// FROZEN copies of the four hand-rolled per-scenario simulation loops
/// that predate the generic sim::Engine, kept verbatim (including their
/// file-local planner/estimator assembly) as the reference side of the
/// trace-equivalence tests. These implementations are intentionally
/// independent of the engine: they assemble their own control stacks and
/// sequence their own per-step loops, so a test asserting bit-identical
/// outcomes against the engine pins the refactor.
///
/// Do not "clean up" or re-route this file through sim::Engine — its
/// value is precisely that it does not share the code under test.

namespace cvsafe::legacy_ref {

/// Episode outcome mirrored from the pre-engine result structs.
struct LegacyResult {
  bool collided = false;
  bool reached = false;
  double reach_time = 0.0;
  double eta = 0.0;
  std::size_t steps = 0;
  std::size_t emergency_steps = 0;
};

/// Per-step recording mirrored from the pre-engine SimTrace.
struct LegacyTrace {
  std::vector<double> accel_commands;
  std::vector<bool> emergency_flags;
  std::vector<double> tau1_lo, tau1_hi;
  std::vector<double> ego_p, c1_p;
  std::vector<core::SwitchEvent> switches;
};

// ---------------------------------------------------------------------------
// Left turn (frozen copy of src/eval/agent.cpp + simulation.cpp)
// ---------------------------------------------------------------------------

/// Frozen copy of the pre-engine LeftTurnAgent assembly.
class LegacyLeftTurnAgent {
 public:
  LegacyLeftTurnAgent(const sim::AgentBlueprint& blueprint) {
    scenario_ = blueprint.scenario;
    config_ = blueprint.config;
    std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>> inner;
    if (!blueprint.ensemble.empty()) {
      inner = std::make_shared<planners::EnsemblePlanner>(
          blueprint.ensemble, planners::InputEncoding{}, "ensemble",
          config_.ensemble_sigma_penalty);
    } else if (config_.use_expert_planner) {
      inner = std::make_shared<planners::ExpertPlanner>(
          scenario_, config_.expert_params, "expert");
    } else {
      assert(blueprint.net != nullptr);
      inner = std::make_shared<planners::NnPlanner>(
          blueprint.net, planners::InputEncoding{}, "nn");
    }

    const auto& c1_limits = scenario_->oncoming_limits();
    if (config_.use_info_filter) {
      nn_estimator_ = std::make_unique<filter::InformationFilter>(
          c1_limits, blueprint.sensor, filter::InfoFilterOptions::ultimate());
    } else {
      nn_estimator_ = std::make_unique<filter::NaiveExtrapolator>(
          blueprint.sensor.delta_p, blueprint.sensor.delta_v);
    }
    if (config_.use_compound) {
      monitor_estimator_ = std::make_unique<filter::InformationFilter>(
          c1_limits, blueprint.sensor, filter::InfoFilterOptions::basic());
      auto model = std::make_shared<scenario::LeftTurnSafetyModel>(
          scenario_, config_.buffers);
      auto compound =
          std::make_shared<core::CompoundPlanner<scenario::LeftTurnWorld>>(
              std::move(inner), std::move(model),
              core::CompoundOptions{config_.use_aggressive});
      compound_ = compound.get();
      planner_ = std::move(compound);
    } else {
      planner_ = std::move(inner);
    }
  }

  void observe_sensor(const sensing::SensorReading& reading) {
    nn_estimator_->on_sensor(reading);
    if (monitor_estimator_) monitor_estimator_->on_sensor(reading);
  }

  void observe_message(const comm::Message& msg) {
    nn_estimator_->on_message(msg);
    if (monitor_estimator_) monitor_estimator_->on_message(msg);
  }

  double act(double t, const vehicle::VehicleState& ego) {
    scenario::LeftTurnWorld world;
    world.t = t;
    world.ego = ego;
    world.c1_nn = nn_estimator_->estimate(t);
    world.tau1_nn = scenario_->c1_window_conservative(world.c1_nn);
    if (monitor_estimator_) {
      world.c1_monitor = monitor_estimator_->estimate(t);
      world.tau1_monitor =
          scenario_->c1_window_conservative(world.c1_monitor);
    }
    last_world_ = world;
    return planner_->plan(world);
  }

  bool last_was_emergency() const {
    return compound_ != nullptr && compound_->last_was_emergency();
  }
  std::vector<core::SwitchEvent> switch_events() const {
    return compound_ != nullptr ? compound_->switch_events()
                                : std::vector<core::SwitchEvent>{};
  }
  const scenario::LeftTurnWorld& last_world() const { return last_world_; }

 private:
  std::shared_ptr<const scenario::LeftTurnScenario> scenario_;
  sim::AgentConfig config_;
  std::unique_ptr<filter::Estimator> nn_estimator_;
  std::unique_ptr<filter::Estimator> monitor_estimator_;
  std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>> planner_;
  core::CompoundPlanner<scenario::LeftTurnWorld>* compound_ = nullptr;
  scenario::LeftTurnWorld last_world_;
};

inline LegacyResult run_left_turn(const sim::LeftTurnSimConfig& config,
                                  const sim::AgentBlueprint& blueprint,
                                  std::uint64_t seed,
                                  LegacyTrace* trace = nullptr) {
  assert(blueprint.scenario != nullptr);
  const auto& scn = *blueprint.scenario;
  util::Rng rng(seed);

  const auto& wl = config.workload;
  assert(!wl.p1_grid.empty());
  const auto grid_idx = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(wl.p1_grid.size()) - 1));
  const double u1_start =
      scenario::LeftTurnGeometry::oncoming_to_frame(wl.p1_grid[grid_idx]);
  const double v1_start = rng.uniform(wl.v1_init_min, wl.v1_init_max);

  const auto total_steps =
      static_cast<std::size_t>(std::ceil(config.horizon / config.dt_c));
  const vehicle::AccelProfile profile = vehicle::AccelProfile::random(
      total_steps, config.dt_c, v1_start, config.c1_limits, wl.profile, rng);

  vehicle::DoubleIntegrator ego_dyn(config.ego_limits);
  vehicle::DoubleIntegrator c1_dyn(config.c1_limits);
  vehicle::VehicleState ego{config.geometry.ego_start, config.ego_v0};
  vehicle::VehicleState c1{u1_start, v1_start};

  comm::Channel channel(config.comm);
  sensing::Sensor sensor(config.sensor);
  LegacyLeftTurnAgent agent(blueprint);

  LegacyResult result;
  for (std::size_t step = 0; step < total_steps; ++step) {
    const double t = static_cast<double>(step) * config.dt_c;
    const double a1 = profile.at(step);

    const vehicle::VehicleSnapshot c1_snapshot{t, c1, a1};
    channel.offer(comm::Message{1, c1_snapshot}, rng);
    for (const auto& msg : channel.collect(t)) agent.observe_message(msg);
    if (const auto reading = sensor.sense(c1_snapshot, rng)) {
      agent.observe_sensor(*reading);
    }

    const double a0 = agent.act(t, ego);
    ++result.steps;
    if (agent.last_was_emergency()) ++result.emergency_steps;

    if (trace != nullptr) {
      trace->accel_commands.push_back(a0);
      trace->emergency_flags.push_back(agent.last_was_emergency());
      trace->ego_p.push_back(ego.p);
      trace->c1_p.push_back(c1.p);
      const auto& w = agent.last_world();
      trace->tau1_lo.push_back(w.tau1_nn.empty() ? -1.0 : w.tau1_nn.lo);
      trace->tau1_hi.push_back(w.tau1_nn.empty() ? -1.0 : w.tau1_nn.hi);
    }

    ego = ego_dyn.step(ego, a0, config.dt_c);
    c1 = c1_dyn.step(c1, a1, config.dt_c);
    const double t_next = t + config.dt_c;

    if (scn.collision(ego.p, c1.p)) {
      result.collided = true;
      result.steps = step + 1;
      break;
    }
    if (scn.ego_reached_target(ego.p)) {
      result.reached = true;
      result.reach_time = t_next;
      break;
    }
  }

  if (trace != nullptr) trace->switches = agent.switch_events();

  core::EpisodeOutcome outcome;
  outcome.entered_unsafe_set = result.collided;
  outcome.reached_target = result.reached;
  outcome.reach_time = result.reach_time;
  result.eta = core::eta(outcome);
  return result;
}

// ---------------------------------------------------------------------------
// Lane change (frozen copy of src/eval/lane_change_sim.cpp)
// ---------------------------------------------------------------------------

class LegacyLaneCruisePlanner final
    : public core::PlannerBase<scenario::LaneChangeWorld> {
 public:
  LegacyLaneCruisePlanner(double cruise_speed,
                          const vehicle::VehicleLimits& limits)
      : cruise_(cruise_speed), limits_(limits) {}
  double plan(const scenario::LaneChangeWorld& world) override {
    return std::clamp(2.0 * (cruise_ - world.ego.v), limits_.a_min,
                      limits_.a_max);
  }
  std::string_view name() const override { return "cruise"; }

 private:
  double cruise_;
  vehicle::VehicleLimits limits_;
};

inline LegacyResult run_lane_change(
    const sim::LaneChangeSimConfig& config,
    const sim::LaneChangePlannerConfig& planner_cfg, std::uint64_t seed) {
  const auto scn = config.make_scenario();
  util::Rng rng(seed);

  vehicle::DoubleIntegrator ego_dyn(config.ego_limits);
  vehicle::DoubleIntegrator c1_dyn(config.c1_limits);
  vehicle::VehicleState ego{config.geometry.ego_start, config.ego_v0};
  vehicle::VehicleState c1{
      config.geometry.merge_point +
          rng.uniform(config.c1_gap_min, config.c1_gap_max),
      rng.uniform(config.c1_v_min, config.c1_v_max)};

  const auto steps =
      static_cast<std::size_t>(std::ceil(config.horizon / config.dt_c));
  const auto profile = vehicle::AccelProfile::random(
      steps, config.dt_c, c1.v, config.c1_limits, {}, rng);

  sensing::Sensor sensor(config.sensor);
  comm::Channel channel(config.comm);
  filter::InformationFilter estimator(
      config.c1_limits, config.sensor,
      planner_cfg.use_info_filter ? filter::InfoFilterOptions::ultimate()
                                  : filter::InfoFilterOptions::basic());

  auto cruise = std::make_shared<LegacyLaneCruisePlanner>(
      planner_cfg.cruise_speed, config.ego_limits);
  std::shared_ptr<core::PlannerBase<scenario::LaneChangeWorld>> planner =
      cruise;
  core::CompoundPlanner<scenario::LaneChangeWorld>* compound = nullptr;
  if (planner_cfg.use_compound) {
    auto model = std::make_shared<scenario::LaneChangeSafetyModel>(scn);
    auto c =
        std::make_shared<core::CompoundPlanner<scenario::LaneChangeWorld>>(
            cruise, std::move(model));
    compound = c.get();
    planner = c;
  }

  LegacyResult result;
  for (std::size_t step = 0; step < steps; ++step) {
    const double t = static_cast<double>(step) * config.dt_c;
    const double a1 = profile.at(step);
    const vehicle::VehicleSnapshot snap{t, c1, a1};
    channel.offer(comm::Message{1, snap}, rng);
    for (const auto& msg : channel.collect(t)) estimator.on_message(msg);
    if (const auto r = sensor.sense(snap, rng)) estimator.on_sensor(*r);

    scenario::LaneChangeWorld world;
    world.t = t;
    world.ego = ego;
    world.c1_monitor = estimator.estimate(t);
    world.c1_nn = world.c1_monitor;

    const double a0 = planner->plan(world);
    ++result.steps;
    if (compound != nullptr && compound->last_was_emergency()) {
      ++result.emergency_steps;
    }

    ego = ego_dyn.step(ego, a0, config.dt_c);
    c1 = c1_dyn.step(c1, a1, config.dt_c);
    if (scn->violation(ego.p, c1.p)) {
      result.collided = true;
      break;
    }
    if (scn->reached_target(ego.p)) {
      result.reached = true;
      result.reach_time = t + config.dt_c;
      break;
    }
  }

  core::EpisodeOutcome outcome;
  outcome.entered_unsafe_set = result.collided;
  outcome.reached_target = result.reached;
  outcome.reach_time = result.reach_time;
  result.eta = core::eta(outcome);
  return result;
}

// ---------------------------------------------------------------------------
// Intersection (frozen copy of src/eval/intersection_sim.cpp)
// ---------------------------------------------------------------------------

inline util::Interval legacy_conservative_window(
    const filter::StateEstimate& est, double front, double back,
    const vehicle::VehicleLimits& lim) {
  if (!est.valid) return util::Interval{est.t, 1e18};
  if (est.p.lo >= back) return util::Interval::empty_interval();
  const double t = est.t;
  double entry;
  if (est.p.hi >= front) {
    entry = t;
  } else {
    entry = t + util::time_to_travel(front - est.p.hi, est.v.hi, lim.a_max,
                                     lim.v_max);
  }
  const double exit = t + util::time_to_travel(back - est.p.lo, est.v.lo,
                                               lim.a_min,
                                               std::max(lim.v_min, 0.1));
  if (exit < entry) return util::Interval::empty_interval();
  return util::Interval{entry, exit};
}

class LegacyIntersectionCruisePlanner final
    : public core::PlannerBase<scenario::IntersectionWorld> {
 public:
  explicit LegacyIntersectionCruisePlanner(const vehicle::VehicleLimits& lim)
      : lim_(lim) {}
  double plan(const scenario::IntersectionWorld& world) override {
    return std::clamp(2.0 * (11.0 - world.ego.v), lim_.a_min, lim_.a_max);
  }
  std::string_view name() const override { return "cruise"; }

 private:
  vehicle::VehicleLimits lim_;
};

inline LegacyResult run_intersection(const sim::IntersectionSimConfig& config,
                                     bool use_compound, std::uint64_t seed) {
  const auto scn = config.make_scenario();
  util::Rng rng(seed);

  const auto total_steps =
      static_cast<std::size_t>(std::ceil(config.horizon / config.dt_c));

  struct CrossVehicle {
    vehicle::VehicleState state;
    vehicle::AccelProfile profile;
    comm::Channel channel;
    sensing::Sensor sensor;
    std::unique_ptr<filter::InformationFilter> est;
  };
  const auto make_stream = [&](std::size_t count) {
    std::vector<CrossVehicle> stream;
    stream.reserve(count);
    double p = config.cross_zone_front -
               rng.uniform(config.lead_gap_min, config.lead_gap_max);
    for (std::size_t i = 0; i < count; ++i) {
      const double v0 = rng.uniform(config.v_init_min, config.v_init_max);
      stream.push_back(CrossVehicle{
          {p, v0},
          vehicle::AccelProfile::random(total_steps, config.dt_c, v0,
                                        config.cross_limits, {}, rng),
          comm::Channel(config.comm), sensing::Sensor(config.sensor),
          std::make_unique<filter::InformationFilter>(
              config.cross_limits, config.sensor,
              filter::InfoFilterOptions::basic())});
      p -= rng.uniform(config.headway_min, config.headway_max);
    }
    return stream;
  };
  std::vector<CrossVehicle> lane_a = make_stream(config.vehicles_per_lane);
  std::vector<CrossVehicle> lane_b = make_stream(config.vehicles_per_lane);

  auto cruise =
      std::make_shared<LegacyIntersectionCruisePlanner>(config.ego_limits);
  std::shared_ptr<core::PlannerBase<scenario::IntersectionWorld>> planner =
      cruise;
  core::CompoundPlanner<scenario::IntersectionWorld>* compound = nullptr;
  if (use_compound) {
    auto model = std::make_shared<scenario::IntersectionSafetyModel>(scn);
    auto c =
        std::make_shared<core::CompoundPlanner<scenario::IntersectionWorld>>(
            cruise, std::move(model));
    compound = c.get();
    planner = c;
  }

  vehicle::DoubleIntegrator ego_dyn(config.ego_limits);
  vehicle::DoubleIntegrator cross_dyn(config.cross_limits);
  vehicle::VehicleState ego{config.geometry.ego_start, config.ego_v0};

  const auto update_stream = [&](std::vector<CrossVehicle>& stream, double t,
                                 std::size_t step, util::IntervalSet& tau) {
    for (std::size_t k = 0; k < stream.size(); ++k) {
      auto& car = stream[k];
      const double a = car.profile.at(step);
      const vehicle::VehicleSnapshot snap{t, car.state, a};
      car.channel.offer(
          comm::Message{static_cast<std::uint32_t>(k + 1), snap}, rng);
      for (const auto& m : car.channel.collect(t)) car.est->on_message(m);
      if (const auto r = car.sensor.sense(snap, rng)) car.est->on_sensor(*r);
      tau.insert(legacy_conservative_window(
          car.est->estimate(t), config.cross_zone_front,
          config.cross_zone_back, config.cross_limits));
    }
  };
  const auto stream_occupies = [&](const std::vector<CrossVehicle>& stream) {
    for (const auto& car : stream) {
      if (car.state.p > config.cross_zone_front &&
          car.state.p < config.cross_zone_back) {
        return true;
      }
    }
    return false;
  };

  LegacyResult result;
  for (std::size_t step = 0; step < total_steps; ++step) {
    const double t = static_cast<double>(step) * config.dt_c;

    scenario::IntersectionWorld world;
    world.t = t;
    world.ego = ego;
    update_stream(lane_a, t, step, world.tau_a);
    update_stream(lane_b, t, step, world.tau_b);

    const double a0 = planner->plan(world);
    ++result.steps;
    if (compound != nullptr && compound->last_was_emergency()) {
      ++result.emergency_steps;
    }

    ego = ego_dyn.step(ego, a0, config.dt_c);
    for (auto& car : lane_a) {
      car.state =
          cross_dyn.step(car.state, car.profile.at(step), config.dt_c);
    }
    for (auto& car : lane_b) {
      car.state =
          cross_dyn.step(car.state, car.profile.at(step), config.dt_c);
    }

    if ((scn->in_zone_a(ego.p) && stream_occupies(lane_a)) ||
        (scn->in_zone_b(ego.p) && stream_occupies(lane_b))) {
      result.collided = true;
      break;
    }
    if (ego.p >= config.geometry.ego_target) {
      result.reached = true;
      result.reach_time = t + config.dt_c;
      break;
    }
  }

  core::EpisodeOutcome outcome;
  outcome.entered_unsafe_set = result.collided;
  outcome.reached_target = result.reached;
  outcome.reach_time = result.reach_time;
  result.eta = core::eta(outcome);
  return result;
}

// ---------------------------------------------------------------------------
// Multi-vehicle left turn (frozen copy of src/eval/multi_simulation.cpp)
// ---------------------------------------------------------------------------

inline LegacyResult run_multi(const sim::LeftTurnSimConfig& config,
                              const sim::MultiVehicleConfig& multi,
                              const sim::MultiAgentSetup& setup,
                              std::uint64_t seed) {
  assert(setup.scenario != nullptr);
  assert(multi.num_oncoming >= 1);
  const auto& scn = *setup.scenario;
  util::Rng rng(seed);

  const auto& wl = config.workload;
  assert(!wl.p1_grid.empty());
  const auto grid_idx = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(wl.p1_grid.size()) - 1));
  const double lead_u =
      scenario::LeftTurnGeometry::oncoming_to_frame(wl.p1_grid[grid_idx]);

  const auto total_steps =
      static_cast<std::size_t>(std::ceil(config.horizon / config.dt_c));

  struct Oncoming {
    vehicle::VehicleState state;
    vehicle::AccelProfile profile;
    comm::Channel channel;
    sensing::Sensor sensor;
    std::unique_ptr<filter::Estimator> monitor_est;
    std::unique_ptr<filter::Estimator> nn_est;
  };
  std::vector<Oncoming> cars;
  cars.reserve(multi.num_oncoming);
  double u = lead_u;
  for (std::size_t i = 0; i < multi.num_oncoming; ++i) {
    const double v0 = rng.uniform(wl.v1_init_min, wl.v1_init_max);
    auto profile = vehicle::AccelProfile::random(
        total_steps, config.dt_c, v0, config.c1_limits, wl.profile, rng);
    auto monitor_est = std::make_unique<filter::InformationFilter>(
        config.c1_limits, config.sensor, filter::InfoFilterOptions::basic());
    std::unique_ptr<filter::Estimator> nn_est;
    if (setup.use_info_filter) {
      nn_est = std::make_unique<filter::InformationFilter>(
          config.c1_limits, config.sensor,
          filter::InfoFilterOptions::ultimate());
    } else {
      nn_est = std::make_unique<filter::NaiveExtrapolator>(
          config.sensor.delta_p, config.sensor.delta_v);
    }
    cars.push_back(Oncoming{vehicle::VehicleState{u, v0}, std::move(profile),
                            comm::Channel(config.comm),
                            sensing::Sensor(config.sensor),
                            std::move(monitor_est), std::move(nn_est)});
    u -= multi.platoon_spacing +
         rng.uniform(-multi.spacing_jitter, multi.spacing_jitter);
  }

  auto math =
      std::make_shared<const scenario::MultiVehicleLeftTurn>(setup.scenario);
  std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>> single;
  if (setup.net != nullptr) {
    single = std::make_shared<planners::NnPlanner>(
        setup.net, planners::InputEncoding{}, "nn");
  } else {
    single = std::make_shared<planners::ExpertPlanner>(
        setup.scenario, setup.expert_params, "expert");
  }
  auto adapted =
      std::make_shared<scenario::FirstConflictAdapter>(std::move(single));

  std::shared_ptr<core::PlannerBase<scenario::LeftTurnMultiWorld>> planner;
  core::CompoundPlanner<scenario::LeftTurnMultiWorld>* compound = nullptr;
  if (setup.use_compound) {
    auto model = std::make_shared<scenario::MultiVehicleSafetyModel>(
        math, setup.buffers);
    auto c = std::make_shared<
        core::CompoundPlanner<scenario::LeftTurnMultiWorld>>(
        adapted, std::move(model), core::CompoundOptions{setup.use_aggressive});
    compound = c.get();
    planner = std::move(c);
  } else {
    planner = adapted;
  }

  vehicle::DoubleIntegrator ego_dyn(config.ego_limits);
  vehicle::DoubleIntegrator c1_dyn(config.c1_limits);
  vehicle::VehicleState ego{config.geometry.ego_start, config.ego_v0};

  LegacyResult result;
  for (std::size_t step = 0; step < total_steps; ++step) {
    const double t = static_cast<double>(step) * config.dt_c;

    scenario::LeftTurnMultiWorld world;
    world.t = t;
    world.ego = ego;
    world.oncoming_monitor.reserve(cars.size());
    world.oncoming_nn.reserve(cars.size());
    for (std::size_t i = 0; i < cars.size(); ++i) {
      auto& car = cars[i];
      const double a1 = car.profile.at(step);
      const vehicle::VehicleSnapshot snap{t, car.state, a1};
      car.channel.offer(
          comm::Message{static_cast<std::uint32_t>(i + 1), snap}, rng);
      for (const auto& msg : car.channel.collect(t)) {
        car.monitor_est->on_message(msg);
        car.nn_est->on_message(msg);
      }
      if (const auto reading = car.sensor.sense(snap, rng)) {
        car.monitor_est->on_sensor(*reading);
        car.nn_est->on_sensor(*reading);
      }
      world.oncoming_monitor.push_back(car.monitor_est->estimate(t));
      world.oncoming_nn.push_back(car.nn_est->estimate(t));
    }
    math->conservative_windows(world.oncoming_monitor, world.tau_monitor);
    math->conservative_windows(world.oncoming_nn, world.tau_nn);

    const double a0 = planner->plan(world);
    ++result.steps;
    if (compound != nullptr && compound->last_was_emergency()) {
      ++result.emergency_steps;
    }

    ego = ego_dyn.step(ego, a0, config.dt_c);
    bool collided = false;
    for (std::size_t i = 0; i < cars.size(); ++i) {
      cars[i].state =
          c1_dyn.step(cars[i].state, cars[i].profile.at(step), config.dt_c);
      if (scn.collision(ego.p, cars[i].state.p)) collided = true;
    }
    if (collided) {
      result.collided = true;
      break;
    }
    if (scn.ego_reached_target(ego.p)) {
      result.reached = true;
      result.reach_time = t + config.dt_c;
      break;
    }
  }

  core::EpisodeOutcome outcome;
  outcome.entered_unsafe_set = result.collided;
  outcome.reached_target = result.reached;
  outcome.reach_time = result.reach_time;
  result.eta = core::eta(outcome);
  return result;
}

}  // namespace cvsafe::legacy_ref
