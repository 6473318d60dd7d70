#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cvsafe/eval/batch.hpp"
#include "cvsafe/planners/training.hpp"

/// \file experiments.hpp
/// Canned experiment definitions matching Section V:
///
///  * the three communication settings (no disturbance / messages delayed
///    with the p_drop sweep / messages lost with the sensor-noise sweep);
///  * the three planner variants per NN style (pure / basic / ultimate);
///  * batch aggregation across a sweep grid with seed pairing preserved,
///    which is how the 80,000-simulation table cells of the paper fold
///    the disturbance sweeps.

namespace cvsafe::eval {

/// The paper's three communication settings.
enum class CommSetting { kNoDisturbance, kDelayed, kLost };

/// "no disturbance" / "messages delayed" / "messages lost".
const char* comm_setting_name(CommSetting setting);

/// Message drop probabilities {0.05 j | j = 0..19} (delayed setting).
std::vector<double> drop_prob_grid();

/// Sensor uncertainties {1 + 0.2 j | j = 0..19} (lost setting).
std::vector<double> sensor_delta_grid();

/// The paper's message delay in the delayed setting [s].
inline constexpr double kPaperMessageDelay = 0.25;

/// Planner variants compared in Tables I and II.
enum class PlannerVariant { kPureNn, kBasic, kUltimate };

/// "pure NN" / "basic" / "ultimate".
const char* planner_variant_name(PlannerVariant variant);

/// Builds the blueprint of one (style, variant) planner for \p config.
/// Trains (or loads from cache) the style's network.
sim::AgentBlueprint make_nn_blueprint(
    const sim::LeftTurnSimConfig& config, planners::PlannerStyle style,
    PlannerVariant variant, const planners::TrainingOptions& train = {});

/// Applies one point of a communication setting to a base configuration:
/// no-disturbance ignores \p sweep_value; delayed uses it as p_drop;
/// lost uses it as the sensor uncertainty delta.
sim::LeftTurnSimConfig apply_setting(sim::LeftTurnSimConfig base,
                                     CommSetting setting,
                                     double sweep_value);

/// Runs a full table cell on the fleet engine (run_batch): a single batch
/// for no-disturbance, or the seed-paired aggregation of sub-batches
/// across the setting's sweep grid (total simulations ~ sims_total).
/// Blueprint sensor configs are adjusted per sweep point automatically.
sim::BatchStats run_setting(const sim::LeftTurnSimConfig& base,
                            const sim::AgentBlueprint& blueprint,
                            CommSetting setting, std::size_t sims_total,
                            std::uint64_t base_seed = 1,
                            std::size_t threads = 0);

}  // namespace cvsafe::eval
