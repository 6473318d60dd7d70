#include "cvsafe/eval/experiments.hpp"

#include <cassert>
#include <cstdint>

#include "cvsafe/util/rng.hpp"

namespace cvsafe::eval {

const char* comm_setting_name(CommSetting setting) {
  switch (setting) {
    case CommSetting::kNoDisturbance: return "no disturbance";
    case CommSetting::kDelayed: return "messages delayed";
    case CommSetting::kLost: return "messages lost";
  }
  return "?";
}

std::vector<double> drop_prob_grid() {
  std::vector<double> grid;
  grid.reserve(20);
  for (int j = 0; j < 20; ++j) grid.push_back(0.05 * j);
  return grid;
}

std::vector<double> sensor_delta_grid() {
  std::vector<double> grid;
  grid.reserve(20);
  for (int j = 0; j < 20; ++j) grid.push_back(1.0 + 0.2 * j);
  return grid;
}

const char* planner_variant_name(PlannerVariant variant) {
  switch (variant) {
    case PlannerVariant::kPureNn: return "pure NN";
    case PlannerVariant::kBasic: return "basic";
    case PlannerVariant::kUltimate: return "ultimate";
  }
  return "?";
}

sim::AgentBlueprint make_nn_blueprint(
    const sim::LeftTurnSimConfig& config, planners::PlannerStyle style,
    PlannerVariant variant, const planners::TrainingOptions& train) {
  sim::AgentBlueprint bp;
  bp.scenario = config.make_scenario();
  bp.net = planners::cached_planner_network(*bp.scenario, style, train);
  bp.sensor = config.sensor;
  switch (variant) {
    case PlannerVariant::kPureNn:
      bp.config = sim::AgentConfig::pure_nn();
      break;
    case PlannerVariant::kBasic:
      bp.config = sim::AgentConfig::basic_compound();
      break;
    case PlannerVariant::kUltimate:
      bp.config = sim::AgentConfig::ultimate_compound();
      break;
  }
  bp.name = std::string(planner_variant_name(variant)) + " (" +
            planners::planner_style_name(style) + ")";
  return bp;
}

sim::LeftTurnSimConfig apply_setting(sim::LeftTurnSimConfig base,
                                     CommSetting setting,
                                     double sweep_value) {
  switch (setting) {
    case CommSetting::kNoDisturbance:
      base.comm = comm::CommConfig::no_disturbance(base.comm.period);
      break;
    case CommSetting::kDelayed:
      base.comm = comm::CommConfig::delayed(sweep_value, kPaperMessageDelay,
                                            base.comm.period);
      break;
    case CommSetting::kLost:
      base.comm = comm::CommConfig::messages_lost(base.comm.period);
      base.sensor =
          sensing::SensorConfig::uniform(sweep_value, base.sensor.period);
      break;
  }
  return base;
}

sim::BatchStats run_setting(const sim::LeftTurnSimConfig& base,
                            const sim::AgentBlueprint& blueprint,
                            CommSetting setting, std::size_t sims_total,
                            std::uint64_t base_seed, std::size_t threads) {
  assert(sims_total > 0);
  std::vector<double> grid;
  switch (setting) {
    case CommSetting::kNoDisturbance:
      grid = {0.0};
      break;
    case CommSetting::kDelayed:
      grid = drop_prob_grid();
      break;
    case CommSetting::kLost:
      grid = sensor_delta_grid();
      break;
  }

  const std::size_t per_point =
      (sims_total + grid.size() - 1) / grid.size();

  sim::BatchStats total;
  total.etas.reserve(per_point * grid.size());
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    const sim::LeftTurnSimConfig cfg = apply_setting(base, setting, grid[gi]);
    sim::AgentBlueprint bp = blueprint;
    bp.sensor = cfg.sensor;  // lost setting sweeps the sensor noise
    // Per-point seed base: derived (never strided) so the episode ranges
    // of different grid points and settings cannot overlap, while two
    // planners evaluated on the same (setting, point) stay paired.
    const std::uint64_t point_base = util::derive_seed(
        base_seed,
        (static_cast<std::uint64_t>(setting) << 32) |
            static_cast<std::uint64_t>(gi));
    total.merge(run_batch(cfg, bp, per_point, point_base, threads));
  }
  return total;
}

}  // namespace cvsafe::eval
