#include "cvsafe/sim/left_turn.hpp"

#include <utility>

#include "cvsafe/filter/naive.hpp"
#include "cvsafe/planners/ensemble.hpp"
#include "cvsafe/scenario/safety_model.hpp"

namespace cvsafe::sim {

using scenario::LeftTurnWorld;

std::vector<double> WorkloadParams::paper_p1_grid() {
  std::vector<double> grid;
  grid.reserve(20);
  for (int j = 0; j < 20; ++j) grid.push_back(50.5 + 0.5 * j);
  return grid;
}

LeftTurnSimConfig LeftTurnSimConfig::paper_defaults() {
  LeftTurnSimConfig c;
  c.workload.p1_grid = WorkloadParams::paper_p1_grid();
  return c;
}

std::shared_ptr<const scenario::LeftTurnScenario>
LeftTurnSimConfig::make_scenario() const {
  return std::make_shared<const scenario::LeftTurnScenario>(
      geometry, ego_limits, c1_limits, dt_c);
}

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

namespace {

/// The blueprint's kappa_n: a deep ensemble when it lists members, else
/// the closed-form expert or its trained network.
std::shared_ptr<core::PlannerBase<LeftTurnWorld>> make_kappa_n(
    const AgentBlueprint& bp) {
  if (!bp.ensemble.empty()) {
    return std::make_shared<planners::EnsemblePlanner>(
        bp.ensemble, planners::InputEncoding{}, "ensemble",
        bp.config.ensemble_sigma_penalty);
  }
  if (bp.config.use_expert_planner) {
    return std::make_shared<planners::ExpertPlanner>(
        bp.scenario, bp.config.expert_params, "expert");
  }
  return std::make_shared<planners::NnPlanner>(
      bp.net, planners::InputEncoding{}, "nn");
}

/// Per-episode left-turn state: the oncoming vehicle, whose actor holds
/// kappa_n's estimator and (compound stacks) the monitor's, plus the
/// assembled ego control stack.
class LeftTurnEpisode final : public Episode<LeftTurnWorld> {
 public:
  /// Workload draw order (fixed; golden traces depend on it): oncoming
  /// grid index, initial speed, acceleration profile.
  LeftTurnEpisode(const LeftTurnSimConfig& config, const AgentBlueprint& bp,
                  util::Rng& rng, std::size_t total_steps,
                  std::uint64_t seed)
      : Episode(config.c1_limits), scn_(bp.scenario.get()) {
    const auto& wl = config.workload;
    const auto grid_idx = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(wl.p1_grid.size()) - 1));
    const double u1_start =
        scenario::LeftTurnGeometry::oncoming_to_frame(wl.p1_grid[grid_idx]);
    const double v1_start = rng.uniform(wl.v1_init_min, wl.v1_init_max);
    vehicle::AccelProfile profile = vehicle::AccelProfile::random(
        total_steps, config.dt_c, v1_start, config.c1_limits, wl.profile,
        rng);

    // Estimator order [kappa_n, monitor] fixes the per-delivery update
    // order, and so the order of the two filters' gate events.
    const AgentConfig& agent = bp.config;
    const auto& limits = scn_->oncoming_limits();
    std::vector<std::unique_ptr<filter::Estimator>> estimators;
    estimators.reserve(2);
    filters_.reserve(2);
    if (agent.use_info_filter) {
      estimators.push_back(make_filter(limits, bp.sensor,
                                       filter::InfoFilterOptions::ultimate(),
                                       agent.gate));
    } else {
      estimators.push_back(std::make_unique<filter::NaiveExtrapolator>(
          bp.sensor.delta_p, bp.sensor.delta_v));
    }
    // The monitor ALWAYS estimates with sound set bounds (reachability on
    // messages and raw sensor readings). The paper joins the Kalman
    // confidence interval into the monitor's estimate as well; we
    // deliberately keep the monitor free of probabilistic intervals — a
    // 3-sigma band occasionally excludes the true state, and a monitor
    // built on it cannot support the safety guarantee (DESIGN.md).
    if (agent.use_compound) {
      estimators.push_back(make_filter(limits, bp.sensor,
                                       filter::InfoFilterOptions::basic(),
                                       agent.gate));
    }
    traffic_.push_back(TrafficActor{1,
                                    vehicle::VehicleState{u1_start, v1_start},
                                    std::move(profile),
                                    actor_channel(config, 1, seed),
                                    actor_sensor(config, 1, seed),
                                    std::move(estimators),
                                    {}});

    install_planner(make_kappa_n(bp),
                    agent.use_compound
                        ? std::make_shared<scenario::LeftTurnSafetyModel>(
                              bp.scenario, agent.buffers)
                        : nullptr,
                    agent.ladder,
                    core::CompoundOptions{agent.use_aggressive});
    ego_init_ =
        vehicle::VehicleState{config.geometry.ego_start, config.ego_v0};
  }

  void build_world(LeftTurnWorld& world, double t) override {
    const auto& estimators = traffic_.front().estimators;
    world.c1_nn = estimators.front()->estimate(t);
    world.tau1_nn = scn_->c1_window_conservative(world.c1_nn);
    if (estimators.size() > 1) {
      world.c1_monitor = estimators[1]->estimate(t);
      world.tau1_monitor = scn_->c1_window_conservative(world.c1_monitor);
    }
    if (compound() != nullptr && compound()->has_ladder()) {
      // The monitor's filter, made last.
      compound()->note_signals(degradation_signals(*filters_.back(), t));
    }
  }

  StepStatus check(const vehicle::VehicleState& ego) const override {
    StepStatus status;
    if (scn_->collision(ego.p, traffic_.front().state.p)) {
      status.collided = true;
    } else if (scn_->ego_reached_target(ego.p)) {
      status.reached = true;
    }
    return status;
  }

 private:
  const scenario::LeftTurnScenario* scn_;
};

/// Streams the per-step figure recording into a SimTrace.
class TraceHook final : public StepHook<LeftTurnWorld> {
 public:
  explicit TraceHook(SimTrace* trace) : trace_(trace) {}

  void on_step(std::size_t step, double t, const LeftTurnWorld& world,
               const vehicle::VehicleState& ego, double a0, bool emergency,
               const Episode<LeftTurnWorld>& episode) override {
    // on_step fires before the traffic advances: this is the snapshot
    // the oncoming vehicle broadcast this step.
    const TrafficActor& c1 = episode.traffic().front();
    trace_->ego.push(vehicle::VehicleSnapshot{t, ego, a0});
    trace_->c1.push(
        vehicle::VehicleSnapshot{t, c1.state, c1.profile.at(step)});
    trace_->accel_commands.push_back(a0);
    trace_->emergency_flags.push_back(emergency);
    trace_->tau1_lo.push_back(world.tau1_nn.empty() ? -1.0
                                                    : world.tau1_nn.lo);
    trace_->tau1_hi.push_back(world.tau1_nn.empty() ? -1.0
                                                    : world.tau1_nn.hi);
  }

  void on_finish(const Episode<LeftTurnWorld>& episode) override {
    const auto* compound = episode.compound();
    trace_->switches = compound != nullptr
                           ? compound->switch_events()
                           : std::vector<core::SwitchEvent>{};
  }

 private:
  SimTrace* trace_;
};

}  // namespace

std::unique_ptr<Episode<LeftTurnWorld>> LeftTurnAdapter::make_episode(
    util::Rng& rng, std::size_t total_steps, std::uint64_t seed) const {
  return std::make_unique<LeftTurnEpisode>(config_, blueprint_, rng,
                                           total_steps, seed);
}

RunResult run_left_turn_simulation(const LeftTurnSimConfig& config,
                                   const AgentBlueprint& blueprint,
                                   std::uint64_t seed, SimTrace* trace) {
  LeftTurnAdapter adapter(config, blueprint);
  if (trace == nullptr) return run_episode(adapter, seed);
  TraceHook hook(trace);
  return run_episode<LeftTurnWorld>(adapter, seed, &hook);
}

namespace {

/// Per-worker batch-planning seam for the fleet engine: each worker owns
/// one NnPlanner (its workspace is not thread-safe); kappa_n is stateless
/// given the world, so sharing one planner across a worker's episodes is
/// exact. Expert and ensemble blueprints get the empty factory: full
/// per-lane planner dispatch.
FleetPlannerFactory<LeftTurnWorld> fleet_planner_factory(
    const AgentBlueprint& blueprint) {
  const bool batchable = !blueprint.config.use_expert_planner &&
                         blueprint.ensemble.empty() &&
                         blueprint.net != nullptr;
  if (!batchable) return {};
  std::shared_ptr<const nn::Mlp> net = blueprint.net;
  return [net]() -> FleetBatchPlanner<LeftTurnWorld> {
    auto planner = std::make_shared<planners::NnPlanner>(
        net, planners::InputEncoding{}, "nn");
    return [planner](std::span<const LeftTurnWorld> worlds,
                     std::span<double> out) {
      planner->plan_batch(worlds, out);
    };
  };
}

}  // namespace

std::vector<RunResult> run_left_turn_fleet_records(
    const LeftTurnSimConfig& config, const AgentBlueprint& blueprint,
    std::size_t n, std::uint64_t base_seed, const FleetConfig& fleet,
    const FleetObsSinks& sinks) {
  LeftTurnAdapter adapter(config, blueprint);
  return run_fleet_records(adapter, n, base_seed, fleet,
                           fleet_planner_factory(blueprint), sinks);
}

}  // namespace cvsafe::sim
