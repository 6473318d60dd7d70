#include "cvsafe/sim/left_turn.hpp"

#include <cassert>

namespace cvsafe::sim {

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

std::unique_ptr<LeftTurnStack> AgentBlueprint::make() const {
  if (!ensemble.empty()) {
    return std::make_unique<LeftTurnStack>(scenario, ensemble, sensor,
                                           config);
  }
  return std::make_unique<LeftTurnStack>(scenario, net, sensor, config);
}

namespace {

/// Draws the oncoming vehicle's workload (grid position, initial speed,
/// acceleration profile — in that order) and assembles the actor.
TrafficActor make_oncoming(const LeftTurnSimConfig& config, util::Rng& rng,
                           std::size_t total_steps, std::uint64_t seed) {
  const auto& wl = config.workload;
  assert(!wl.p1_grid.empty());
  const auto grid_idx = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(wl.p1_grid.size()) - 1));
  const double u1_start =
      scenario::LeftTurnGeometry::oncoming_to_frame(wl.p1_grid[grid_idx]);
  const double v1_start = rng.uniform(wl.v1_init_min, wl.v1_init_max);
  vehicle::AccelProfile profile = vehicle::AccelProfile::random(
      total_steps, config.dt_c, v1_start, config.c1_limits, wl.profile, rng);
  return TrafficActor{1,
                      vehicle::VehicleState{u1_start, v1_start},
                      std::move(profile),
                      actor_channel(config, 1, seed),
                      actor_sensor(config, 1, seed),
                      {},
                      {}};
}

}  // namespace

LeftTurnEpisode::LeftTurnEpisode(const LeftTurnSimConfig& config,
                                 const AgentBlueprint& blueprint,
                                 util::Rng& rng, std::size_t total_steps,
                                 std::uint64_t seed)
    : scn_(blueprint.scenario.get()),
      c1_dyn_(config.c1_limits),
      c1_(make_oncoming(config, rng, total_steps, seed)),
      stack_(blueprint.make()) {
  assert(scn_ != nullptr);
  planner_ = stack_->planner_ptr();
  compound_ = stack_->compound();
  ego_init_ = vehicle::VehicleState{config.geometry.ego_start, config.ego_v0};
}

void LeftTurnEpisode::observe(scenario::LeftTurnWorld& world, double t,
                              std::size_t step, util::Rng& rng) {
  c1_snapshot_ = broadcast_and_observe(
      c1_, t, step, rng,
      [&](const comm::Message& msg) { stack_->observe_message(msg); },
      [&](const sensing::SensorReading& reading) {
        stack_->observe_sensor(reading);
      });
  stack_->build_world(world);
}

void LeftTurnEpisode::advance_traffic(std::size_t step, double dt) {
  c1_.state = c1_dyn_.step(c1_.state, c1_.profile.at(step), dt);
}

StepStatus LeftTurnEpisode::check(const vehicle::VehicleState& ego) const {
  StepStatus status;
  if (scn_->collision(ego.p, c1_.state.p)) {
    status.collided = true;
  } else if (scn_->ego_reached_target(ego.p)) {
    status.reached = true;
  }
  return status;
}

void LeftTurnEpisode::finalize(RunResult& result) const {
  for (const filter::InformationFilter* f : stack_->information_filters()) {
    if (f != nullptr) add_gate_tally(result, *f);
  }
}

void LeftTurnEpisode::attach_recorder(obs::Recorder* recorder) {
  stack_->attach_recorder(recorder);
  c1_.set_recorder(recorder);
}

std::unique_ptr<Episode<scenario::LeftTurnWorld>>
LeftTurnAdapter::make_episode(util::Rng& rng, std::size_t total_steps,
                              std::uint64_t seed) const {
  return std::make_unique<LeftTurnEpisode>(config_, blueprint_, rng,
                                           total_steps, seed);
}

namespace {

/// Streams the per-step figure recording into a SimTrace.
class TraceHook final : public StepHook<scenario::LeftTurnWorld> {
 public:
  explicit TraceHook(SimTrace* trace) : trace_(trace) {}

  void on_step(std::size_t step, double t,
               const scenario::LeftTurnWorld& world,
               const vehicle::VehicleState& ego, double a0, bool emergency,
               const Episode<scenario::LeftTurnWorld>& episode) override {
    (void)step;
    const auto& ep = static_cast<const LeftTurnEpisode&>(episode);
    trace_->ego.push(vehicle::VehicleSnapshot{t, ego, a0});
    trace_->c1.push(ep.c1_snapshot());
    trace_->accel_commands.push_back(a0);
    trace_->emergency_flags.push_back(emergency);
    trace_->tau1_lo.push_back(world.tau1_nn.empty() ? -1.0
                                                    : world.tau1_nn.lo);
    trace_->tau1_hi.push_back(world.tau1_nn.empty() ? -1.0
                                                    : world.tau1_nn.hi);
  }

  void on_finish(
      const Episode<scenario::LeftTurnWorld>& episode) override {
    const auto& ep = static_cast<const LeftTurnEpisode&>(episode);
    trace_->switches = ep.stack().switch_events();
  }

 private:
  SimTrace* trace_;
};

}  // namespace

RunResult run_left_turn_simulation(const LeftTurnSimConfig& config,
                                   const AgentBlueprint& blueprint,
                                   std::uint64_t seed, SimTrace* trace) {
  LeftTurnAdapter adapter(config, blueprint);
  if (trace == nullptr) return run_episode(adapter, seed);
  TraceHook hook(trace);
  return run_episode<scenario::LeftTurnWorld>(adapter, seed, &hook);
}

namespace {

/// Per-worker batch-planning seam for the fleet engine: each worker owns
/// one NnPlanner (its workspace is not thread-safe); kappa_n is stateless
/// given the world, so sharing one planner across a worker's episodes is
/// exact. Expert and ensemble blueprints get the empty factory: full
/// per-lane planner dispatch.
FleetPlannerFactory<scenario::LeftTurnWorld> fleet_planner_factory(
    const AgentBlueprint& blueprint) {
  const bool batchable = !blueprint.config.use_expert_planner &&
                         blueprint.ensemble.empty() &&
                         blueprint.net != nullptr;
  if (!batchable) return {};
  std::shared_ptr<const nn::Mlp> net = blueprint.net;
  return [net]() -> FleetBatchPlanner<scenario::LeftTurnWorld> {
    auto planner = std::make_shared<planners::NnPlanner>(
        net, planners::InputEncoding{}, "nn");
    return [planner](std::span<const scenario::LeftTurnWorld> worlds,
                     std::span<double> out) {
      planner->plan_batch(worlds, out);
    };
  };
}

}  // namespace

FleetResult run_left_turn_fleet(const LeftTurnSimConfig& config,
                                const AgentBlueprint& blueprint,
                                std::size_t n, std::uint64_t base_seed,
                                const FleetConfig& fleet,
                                const FleetObsSinks& sinks) {
  LeftTurnAdapter adapter(config, blueprint);
  return run_fleet(adapter, n, base_seed, fleet,
                   fleet_planner_factory(blueprint), sinks);
}

std::vector<RunResult> run_left_turn_fleet_records(
    const LeftTurnSimConfig& config, const AgentBlueprint& blueprint,
    std::size_t n, std::uint64_t base_seed, const FleetConfig& fleet,
    const FleetObsSinks& sinks) {
  LeftTurnAdapter adapter(config, blueprint);
  return run_fleet_records(adapter, n, base_seed, fleet,
                           fleet_planner_factory(blueprint), sinks);
}

}  // namespace cvsafe::sim
