#include "cvsafe/sim/multi_vehicle.hpp"

#include <cassert>
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
      : scn_(setup.scenario.get()),
        math_(std::move(math)),
        c1_dyn_(config.c1_limits) {
    assert(scn_ != nullptr);
    assert(multi.num_oncoming >= 1);

    const auto& wl = config.workload;
    assert(!wl.p1_grid.empty());
    const auto grid_idx = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(wl.p1_grid.size()) - 1));
    const double lead_u =
        scenario::LeftTurnGeometry::oncoming_to_frame(wl.p1_grid[grid_idx]);

    cars_.reserve(multi.num_oncoming);
    double u = lead_u;
    for (std::size_t i = 0; i < multi.num_oncoming; ++i) {
      const double v0 = rng.uniform(wl.v1_init_min, wl.v1_init_max);
      vehicle::AccelProfile profile = vehicle::AccelProfile::random(
          total_steps, config.dt_c, v0, config.c1_limits, wl.profile, rng);
      // Estimator order [monitor, nn] fixes the per-delivery update order.
      const auto id = static_cast<std::uint32_t>(i + 1);
      std::vector<std::unique_ptr<filter::Estimator>> estimators;
      auto monitor_filter = std::make_unique<filter::InformationFilter>(
          config.c1_limits, config.sensor,
          filter::InfoFilterOptions::basic(), config.gate);
      monitor_filters_.push_back(monitor_filter.get());
      estimators.push_back(std::move(monitor_filter));
      if (setup.use_info_filter) {
        auto nn_filter = std::make_unique<filter::InformationFilter>(
            config.c1_limits, config.sensor,
            filter::InfoFilterOptions::ultimate(), config.gate);
        nn_filters_.push_back(nn_filter.get());
        estimators.push_back(std::move(nn_filter));
      } else {
        estimators.push_back(std::make_unique<filter::NaiveExtrapolator>(
            config.sensor.delta_p, config.sensor.delta_v));
      }
      cars_.push_back(TrafficActor{id,
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
    auto adapted =
        std::make_shared<scenario::FirstConflictAdapter>(std::move(single));
    if (setup.use_compound) {
      auto model = std::make_shared<scenario::MultiVehicleSafetyModel>(
          math_, setup.buffers);
      auto compound =
          std::make_shared<core::CompoundPlanner<LeftTurnMultiWorld>>(
              std::move(adapted), std::move(model),
              core::CompoundOptions{setup.use_aggressive});
      compound_ = compound.get();
      planner_ = std::move(compound);
      if (config.ladder) compound_->enable_degradation(*config.ladder);
    } else {
      planner_ = std::move(adapted);
    }
    ego_init_ =
        vehicle::VehicleState{config.geometry.ego_start, config.ego_v0};
  }

  void observe(LeftTurnMultiWorld& world, double t, std::size_t step,
               util::Rng& rng) override {
    world.oncoming_monitor.reserve(cars_.size());
    world.oncoming_nn.reserve(cars_.size());
    for (auto& car : cars_) {
      pump(car, t, step, rng);
      world.oncoming_monitor.push_back(car.estimators[0]->estimate(t));
      world.oncoming_nn.push_back(car.estimators[1]->estimate(t));
    }
    world.tau_monitor = math_->conservative_windows(world.oncoming_monitor);
    world.tau_nn = math_->conservative_windows(world.oncoming_nn);
    if (compound_ != nullptr && compound_->has_ladder()) {
      SignalAccumulator acc;
      for (const auto* f : monitor_filters_) {
        acc.add(degradation_signals(*f, t));
      }
      compound_->note_signals(acc.worst);
    }
  }

  void finalize(RunResult& result) const override {
    for (const auto* list : {&monitor_filters_, &nn_filters_}) {
      for (const auto* f : *list) {
        const filter::RejectionCounters& c = f->rejections();
        result.messages_accepted += c.accepted;
        result.messages_rejected += c.total_rejected();
        result.rejection_reasons[0] += c.non_finite;
        result.rejection_reasons[1] += c.out_of_range;
        result.rejection_reasons[2] += c.stale;
        result.rejection_reasons[3] += c.implausible;
      }
    }
  }

  void attach_ring(obs::RingRecorder* ring) override {
    if (compound_ != nullptr) compound_->set_ring(ring);
    for (auto* list : {&monitor_filters_, &nn_filters_}) {
      for (auto* f : *list) f->set_ring(ring);
    }
  }

  void advance_traffic(std::size_t step, double dt) override {
    for (auto& car : cars_) {
      car.state = c1_dyn_.step(car.state, car.profile.at(step), dt);
    }
  }

  StepStatus check(const vehicle::VehicleState& ego) const override {
    StepStatus status;
    for (const auto& car : cars_) {
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
  vehicle::DoubleIntegrator c1_dyn_;
  std::vector<TrafficActor> cars_;
  /// Typed views per car (signals, gate tallies); nn_filters_ is empty
  /// when the NN side uses the naive extrapolator.
  std::vector<filter::InformationFilter*> monitor_filters_;
  std::vector<filter::InformationFilter*> nn_filters_;
};

}  // namespace

MultiVehicleAdapter::MultiVehicleAdapter(LeftTurnSimConfig config,
                                         MultiVehicleConfig multi,
                                         MultiAgentSetup setup)
    : config_(std::move(config)),
      multi_(multi),
      setup_(std::move(setup)),
      math_(std::make_shared<const scenario::MultiVehicleLeftTurn>(
          setup_.scenario)) {}

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
  return stats_from_records(run_fleet_records(adapter, n, base_seed, fleet));
}

}  // namespace cvsafe::sim
