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
      : Episode(config.c1_limits), scn_(std::move(scn)) {
    const double p0 = config.geometry.merge_point +
                      rng.uniform(config.c1_gap_min, config.c1_gap_max);
    const double v0 = rng.uniform(config.c1_v_min, config.c1_v_max);
    vehicle::AccelProfile profile = vehicle::AccelProfile::random(
        total_steps, config.dt_c, v0, config.c1_limits, {}, rng);
    std::vector<std::unique_ptr<filter::Estimator>> estimators;
    estimators.push_back(make_filter(
        config.c1_limits, config.sensor,
        planner_cfg.use_info_filter ? filter::InfoFilterOptions::ultimate()
                                    : filter::InfoFilterOptions::basic(),
        config.gate));
    traffic_.push_back(TrafficActor{1,
                                    vehicle::VehicleState{p0, v0},
                                    std::move(profile),
                                    actor_channel(config, 1, seed),
                                    actor_sensor(config, 1, seed),
                                    std::move(estimators),
                                    {}});

    install_planner(
        factory ? factory(config)
                : std::make_shared<CruisePlanner<LaneChangeWorld>>(
                      planner_cfg.cruise_speed, config.ego_limits),
        planner_cfg.use_compound
            ? std::make_shared<scenario::LaneChangeSafetyModel>(scn_)
            : nullptr,
        config.ladder);
    ego_init_ =
        vehicle::VehicleState{config.geometry.ego_start, config.ego_v0};
  }

  void build_world(LaneChangeWorld& world, double t) override {
    world.c1_monitor = traffic_.front().estimators.front()->estimate(t);
    world.c1_nn = world.c1_monitor;
    if (compound() != nullptr && compound()->has_ladder()) {
      compound()->note_signals(degradation_signals(*filters_.front(), t));
    }
  }

  StepStatus check(const vehicle::VehicleState& ego) const override {
    StepStatus status;
    if (scn_->violation(ego.p, traffic_.front().state.p)) {
      status.collided = true;
    } else if (scn_->reached_target(ego.p)) {
      status.reached = true;
    }
    return status;
  }

 private:
  std::shared_ptr<const scenario::LaneChangeScenario> scn_;
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
