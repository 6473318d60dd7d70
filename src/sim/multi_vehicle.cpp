#include "cvsafe/sim/multi_vehicle.hpp"

#include <utility>
#include <vector>

#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/filter/naive.hpp"
#include "cvsafe/planners/expert.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/sim/fleet.hpp"

namespace cvsafe::sim {

using scenario::LeftTurnMultiWorld;

namespace {

/// The monitor's filter of an oncoming car (its first estimator).
const filter::InformationFilter& monitor_filter(const TrafficActor& car) {
  return static_cast<const filter::InformationFilter&>(*car.estimators[0]);
}

class MultiVehicleEpisode final : public Episode<LeftTurnMultiWorld> {
 public:
  /// Workload draw order (fixed): platoon lead grid index, then per
  /// vehicle its initial speed, acceleration profile and trailing
  /// headway jitter.
  MultiVehicleEpisode(
      const LeftTurnSimConfig& config, const MultiVehicleConfig& multi,
      const MultiAgentSetup& setup,
      std::shared_ptr<const scenario::MultiVehicleLeftTurn> math,
      util::Rng& rng, std::size_t total_steps, std::uint64_t seed)
      : Episode(config.c1_limits),
        scn_(setup.scenario.get()),
        math_(std::move(math)) {
    const auto& wl = config.workload;
    const auto grid_idx = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(wl.p1_grid.size()) - 1));
    const double lead_u =
        scenario::LeftTurnGeometry::oncoming_to_frame(wl.p1_grid[grid_idx]);

    traffic_.reserve(multi.num_oncoming);
    filters_.reserve(2 * multi.num_oncoming);
    double u = lead_u;
    for (std::size_t i = 0; i < multi.num_oncoming; ++i) {
      const double v0 = rng.uniform(wl.v1_init_min, wl.v1_init_max);
      vehicle::AccelProfile profile = vehicle::AccelProfile::random(
          total_steps, config.dt_c, v0, config.c1_limits, wl.profile, rng);
      // Estimator order [monitor, nn] fixes the per-delivery update order.
      const auto id = static_cast<std::uint32_t>(i + 1);
      std::vector<std::unique_ptr<filter::Estimator>> estimators;
      estimators.push_back(make_filter(config.c1_limits, config.sensor,
                                       filter::InfoFilterOptions::basic(),
                                       config.gate));
      if (setup.use_info_filter) {
        estimators.push_back(make_filter(config.c1_limits, config.sensor,
                                         filter::InfoFilterOptions::ultimate(),
                                         config.gate));
      } else {
        estimators.push_back(std::make_unique<filter::NaiveExtrapolator>(
            config.sensor.delta_p, config.sensor.delta_v));
      }
      traffic_.push_back(TrafficActor{id,
                                      vehicle::VehicleState{u, v0},
                                      std::move(profile),
                                      actor_channel(config, id, seed),
                                      actor_sensor(config, id, seed),
                                      std::move(estimators),
                                      {}});
      u -= multi.platoon_spacing +
           rng.uniform(-multi.spacing_jitter, multi.spacing_jitter);
    }

    std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>> single;
    if (setup.net != nullptr) {
      single = std::make_shared<planners::NnPlanner>(
          setup.net, planners::InputEncoding{}, "nn");
    } else {
      single = std::make_shared<planners::ExpertPlanner>(
          setup.scenario, setup.expert_params, "expert");
    }
    install_planner(
        std::make_shared<scenario::FirstConflictAdapter>(std::move(single)),
        setup.use_compound ? std::make_shared<scenario::MultiVehicleSafetyModel>(
                                 math_, setup.buffers)
                           : nullptr,
        config.ladder, core::CompoundOptions{setup.use_aggressive});
    ego_init_ =
        vehicle::VehicleState{config.geometry.ego_start, config.ego_v0};
  }

  void build_world(LeftTurnMultiWorld& world, double t) override {
    world.oncoming_monitor.reserve(traffic_.size());
    world.oncoming_nn.reserve(traffic_.size());
    for (const auto& car : traffic_) {
      world.oncoming_monitor.push_back(car.estimators[0]->estimate(t));
      world.oncoming_nn.push_back(car.estimators[1]->estimate(t));
    }
    math_->conservative_windows(world.oncoming_monitor, world.tau_monitor);
    math_->conservative_windows(world.oncoming_nn, world.tau_nn);
    if (compound() != nullptr && compound()->has_ladder()) {
      SignalAccumulator acc;
      for (const auto& car : traffic_) {
        acc.add(degradation_signals(monitor_filter(car), t));
      }
      compound()->note_signals(acc.worst);
    }
  }

  StepStatus check(const vehicle::VehicleState& ego) const override {
    StepStatus status;
    for (const auto& car : traffic_) {
      if (scn_->collision(ego.p, car.state.p)) status.collided = true;
    }
    if (!status.collided && scn_->ego_reached_target(ego.p)) {
      status.reached = true;
    }
    return status;
  }

 private:
  const scenario::LeftTurnScenario* scn_;
  std::shared_ptr<const scenario::MultiVehicleLeftTurn> math_;
};

}  // namespace

MultiVehicleAdapter::MultiVehicleAdapter(LeftTurnSimConfig config,
                                         MultiVehicleConfig multi,
                                         MultiAgentSetup setup)
    : config_(std::move(config)), multi_(multi), setup_(std::move(setup)) {
  CVSAFE_EXPECTS(setup_.scenario != nullptr,
                 "multi-vehicle: setup.scenario must be set");
  CVSAFE_EXPECTS(!config_.workload.p1_grid.empty(),
                 "multi-vehicle: workload.p1_grid must not be empty");
  CVSAFE_EXPECTS(multi_.num_oncoming >= 1,
                 "multi-vehicle: multi.num_oncoming must be at least 1");
  CVSAFE_EXPECTS(start_speeds_within(config_.workload.v1_init_min,
                                     config_.workload.v1_init_max,
                                     config_.c1_limits),
                 "multi-vehicle: [workload.v1_init_min,"
                 " workload.v1_init_max] must be an ordered range within"
                 " c1_limits' speeds");
  math_ = std::make_shared<const scenario::MultiVehicleLeftTurn>(
      setup_.scenario);
}

std::unique_ptr<Episode<LeftTurnMultiWorld>>
MultiVehicleAdapter::make_episode(util::Rng& rng, std::size_t total_steps,
                                  std::uint64_t seed) const {
  return std::make_unique<MultiVehicleEpisode>(
      config_, multi_, setup_, math_, rng, total_steps, seed);
}

RunResult run_multi_left_turn_simulation(const LeftTurnSimConfig& config,
                                         const MultiVehicleConfig& multi,
                                         const MultiAgentSetup& setup,
                                         std::uint64_t seed) {
  MultiVehicleAdapter adapter(config, multi, setup);
  return run_episode(adapter, seed);
}

BatchStats run_multi_batch(const LeftTurnSimConfig& config,
                           const MultiVehicleConfig& multi,
                           const MultiAgentSetup& setup, std::size_t n,
                           std::uint64_t base_seed, std::size_t threads,
                           SeedPolicy policy) {
  MultiVehicleAdapter adapter(config, multi, setup);
  FleetConfig fleet;
  fleet.threads = threads;
  fleet.policy = policy;
  return BatchStats::from_results(
      run_fleet_records(adapter, n, base_seed, fleet));
}

}  // namespace cvsafe::sim
