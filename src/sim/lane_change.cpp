#include "cvsafe/sim/lane_change.hpp"

#include <utility>
#include <vector>

#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/sim/cruise_planner.hpp"
#include "cvsafe/sim/fleet.hpp"

namespace cvsafe::sim {

using scenario::LaneChangeWorld;

std::shared_ptr<const scenario::LaneChangeScenario>
LaneChangeSimConfig::make_scenario() const {
  return std::make_shared<const scenario::LaneChangeScenario>(
      geometry, ego_limits, c1_limits, dt_c);
}

namespace {

class LaneChangeEpisode final : public Episode<LaneChangeWorld> {
 public:
  /// Workload draw order (fixed): leading-vehicle gap, initial speed,
  /// acceleration profile.
  LaneChangeEpisode(const LaneChangeSimConfig& config,
                    const LaneChangePlannerConfig& planner_cfg,
                    std::shared_ptr<const scenario::LaneChangeScenario> scn,
                    const LaneChangeAdapter::PlannerFactory& factory,
                    util::Rng& rng, std::size_t total_steps,
                    std::uint64_t seed)
      : scn_(std::move(scn)),
        c1_dyn_(config.c1_limits),
        c1_(make_leading(config, planner_cfg, rng, total_steps, seed)) {
    c1_filter_ = static_cast<filter::InformationFilter*>(
        c1_.estimators.front().get());
    std::shared_ptr<core::PlannerBase<LaneChangeWorld>> inner =
        factory ? factory(config)
                : std::make_shared<CruisePlanner<LaneChangeWorld>>(
                      planner_cfg.cruise_speed, config.ego_limits);
    if (planner_cfg.use_compound) {
      auto model = std::make_shared<scenario::LaneChangeSafetyModel>(scn_);
      auto compound =
          std::make_shared<core::CompoundPlanner<LaneChangeWorld>>(
              std::move(inner), std::move(model));
      compound_ = compound.get();
      planner_ = std::move(compound);
      if (config.ladder) compound_->enable_degradation(*config.ladder);
    } else {
      planner_ = std::move(inner);
    }
    ego_init_ =
        vehicle::VehicleState{config.geometry.ego_start, config.ego_v0};
  }

  void observe(LaneChangeWorld& world, double t, std::size_t step,
               util::Rng& rng) override {
    pump(c1_, t, step, rng);
    world.c1_monitor = c1_.estimators.front()->estimate(t);
    world.c1_nn = world.c1_monitor;
    if (compound_ != nullptr && compound_->has_ladder()) {
      compound_->note_signals(degradation_signals(*c1_filter_, t));
    }
  }

  void finalize(RunResult& result) const override {
    add_gate_tally(result, *c1_filter_);
  }

  void attach_recorder(obs::Recorder* recorder) override {
    if (compound_ != nullptr) compound_->set_recorder(recorder);
    c1_filter_->set_recorder(recorder);
    c1_.set_recorder(recorder);
  }

  void advance_traffic(std::size_t step, double dt) override {
    c1_.state = c1_dyn_.step(c1_.state, c1_.profile.at(step), dt);
  }

  StepStatus check(const vehicle::VehicleState& ego) const override {
    StepStatus status;
    if (scn_->violation(ego.p, c1_.state.p)) {
      status.collided = true;
    } else if (scn_->reached_target(ego.p)) {
      status.reached = true;
    }
    return status;
  }

 private:
  static TrafficActor make_leading(const LaneChangeSimConfig& config,
                                   const LaneChangePlannerConfig& planner_cfg,
                                   util::Rng& rng, std::size_t total_steps,
                                   std::uint64_t seed) {
    const double p0 = config.geometry.merge_point +
                      rng.uniform(config.c1_gap_min, config.c1_gap_max);
    const double v0 = rng.uniform(config.c1_v_min, config.c1_v_max);
    vehicle::AccelProfile profile = vehicle::AccelProfile::random(
        total_steps, config.dt_c, v0, config.c1_limits, {}, rng);
    std::vector<std::unique_ptr<filter::Estimator>> estimators;
    estimators.push_back(std::make_unique<filter::InformationFilter>(
        config.c1_limits, config.sensor,
        planner_cfg.use_info_filter ? filter::InfoFilterOptions::ultimate()
                                    : filter::InfoFilterOptions::basic(),
        config.gate));
    return TrafficActor{1,
                        vehicle::VehicleState{p0, v0},
                        std::move(profile),
                        actor_channel(config, 1, seed),
                        actor_sensor(config, 1, seed),
                        std::move(estimators),
                        {}};
  }

  std::shared_ptr<const scenario::LaneChangeScenario> scn_;
  vehicle::DoubleIntegrator c1_dyn_;
  TrafficActor c1_;
  filter::InformationFilter* c1_filter_ = nullptr;
};

}  // namespace

LaneChangeAdapter::LaneChangeAdapter(LaneChangeSimConfig config,
                                     LaneChangePlannerConfig planner_cfg)
    : config_(std::move(config)),
      planner_cfg_(planner_cfg),
      scn_(config_.make_scenario()) {
  CVSAFE_EXPECTS(start_speeds_within(config_.c1_v_min, config_.c1_v_max,
                                     config_.c1_limits),
                 "lane change: [c1_v_min, c1_v_max] must be an ordered range"
                 " within c1_limits' speeds");
}

std::unique_ptr<Episode<LaneChangeWorld>> LaneChangeAdapter::make_episode(
    util::Rng& rng, std::size_t total_steps, std::uint64_t seed) const {
  return std::make_unique<LaneChangeEpisode>(config_, planner_cfg_, scn_,
                                             planner_factory_, rng,
                                             total_steps, seed);
}

RunResult run_lane_change_simulation(const LaneChangeSimConfig& config,
                                     const LaneChangePlannerConfig& planner,
                                     std::uint64_t seed) {
  LaneChangeAdapter adapter(config, planner);
  return run_episode(adapter, seed);
}

BatchStats run_lane_change_batch(const LaneChangeSimConfig& config,
                                 const LaneChangePlannerConfig& planner,
                                 std::size_t n, std::uint64_t base_seed,
                                 std::size_t threads, SeedPolicy policy) {
  LaneChangeAdapter adapter(config, planner);
  FleetConfig fleet;
  fleet.threads = threads;
  fleet.policy = policy;
  return BatchStats::from_results(
      run_fleet_records(adapter, n, base_seed, fleet));
}

}  // namespace cvsafe::sim
