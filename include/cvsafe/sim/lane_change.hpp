#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cvsafe/scenario/lane_change.hpp"
#include "cvsafe/sim/engine.hpp"

/// \file lane_change.hpp
/// The lane-change / merge scenario as a sim::Engine adapter — the same
/// closed-loop machinery as the left-turn case study, applied to the
/// second instantiation of the framework. Quantifies that the compound
/// planner's guarantee and efficiency story generalize beyond the
/// paper's case study.

namespace cvsafe::sim {

/// Configuration of one lane-change simulation cell.
struct LaneChangeSimConfig : RunConfig {
  LaneChangeSimConfig() {
    ego_limits = vehicle::VehicleLimits{0.0, 18.0, -6.0, 3.0};
    horizon = 30.0;
    ego_v0 = 12.0;
    sensor = sensing::SensorConfig::uniform(0.8);
  }

  scenario::LaneChangeGeometry geometry;
  vehicle::VehicleLimits c1_limits{3.0, 15.0, -3.0, 2.0};

  /// Leading-vehicle workload: initial headway ahead of the merge point
  /// and initial speed ranges.
  double c1_gap_min = 0.0;
  double c1_gap_max = 25.0;
  double c1_v_min = 4.0;
  double c1_v_max = 10.0;

  std::shared_ptr<const scenario::LaneChangeScenario> make_scenario() const;
};

/// Planner selection for the lane-change harness.
struct LaneChangePlannerConfig {
  /// Target-speed tracking gain of the (reckless) merging planner.
  double cruise_speed = 16.0;
  bool use_compound = true;          ///< monitor + emergency wrap
  bool use_info_filter = true;       ///< ultimate estimators for the monitor
};

/// The lane-change scenario plugged into the generic engine.
class LaneChangeAdapter final
    : public ScenarioAdapter<scenario::LaneChangeWorld> {
 public:
  /// Builds the embedded (kappa_n) planner for one episode; the adapter
  /// wraps it in the compound planner per the planner configuration.
  using PlannerFactory =
      std::function<std::shared_ptr<core::PlannerBase<
          scenario::LaneChangeWorld>>(const LaneChangeSimConfig&)>;

  LaneChangeAdapter(LaneChangeSimConfig config,
                    LaneChangePlannerConfig planner_cfg);

  std::string_view name() const override { return "lane-change"; }
  const RunConfig& run() const override { return config_; }
  std::unique_ptr<Episode<scenario::LaneChangeWorld>> make_episode(
      util::Rng& rng, std::size_t total_steps,
      std::uint64_t seed) const override;

  /// Replaces the default cruise controller as the embedded planner
  /// (custom baselines, examples).
  void set_planner_factory(PlannerFactory factory) {
    planner_factory_ = std::move(factory);
  }

  const LaneChangeSimConfig& config() const { return config_; }

 private:
  LaneChangeSimConfig config_;
  LaneChangePlannerConfig planner_cfg_;
  std::shared_ptr<const scenario::LaneChangeScenario> scn_;
  PlannerFactory planner_factory_;
};

/// Runs one lane-change episode.
RunResult run_lane_change_simulation(const LaneChangeSimConfig& config,
                                     const LaneChangePlannerConfig& planner,
                                     std::uint64_t seed);

/// Batch on the fleet engine (seed-paired under the default policy;
/// byte-identical to run_episodes over the same seeds).
BatchStats run_lane_change_batch(const LaneChangeSimConfig& config,
                                 const LaneChangePlannerConfig& planner,
                                 std::size_t n, std::uint64_t base_seed = 1,
                                 std::size_t threads = 0,
                                 SeedPolicy policy = SeedPolicy::kPaired);

}  // namespace cvsafe::sim
