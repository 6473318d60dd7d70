#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/planners/expert.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/scenario/left_turn.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/sim/engine.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/trajectory.hpp"

/// \file left_turn.hpp
/// The closed-loop left-turn scenario of Section V as a sim::Engine
/// adapter: ego control stack vs an oncoming vehicle driving a random
/// acceleration sequence, under a configurable communication / sensing
/// disturbance.
///
/// The agent configuration covers every planner variant evaluated in the
/// paper plus the ablation crosses:
///
///   pure NN            — naive estimator, no monitor;
///   basic compound     — naive estimator for the NN, sound reachability
///                        bounds for the monitor, no aggressive shrink;
///   ultimate compound  — information filter (reachability ∩ Kalman) for
///                        the NN, sound reachability bounds for the
///                        monitor, aggressive unsafe set for the NN;
///   ablations          — each technique toggled independently.

namespace cvsafe::sim {

/// Workload generation parameters (the paper's Section V setup).
struct WorkloadParams {
  /// Grid of oncoming initial positions, paper coordinates
  /// {50.5 + 0.5 j | j = 0..19}; one is drawn per simulation.
  std::vector<double> p1_grid;

  /// Oncoming initial speed range [m/s].
  double v1_init_min = 7.0;
  double v1_init_max = 14.0;

  /// Random acceleration-sequence shape.
  vehicle::AccelProfileParams profile;

  /// The paper's grid.
  static std::vector<double> paper_p1_grid();
};

/// Full configuration of one left-turn simulation cell. The engine-facing
/// loop parameters live in the RunConfig base (their defaults already are
/// the paper's left-turn values).
struct LeftTurnSimConfig : RunConfig {
  scenario::LeftTurnGeometry geometry;
  vehicle::VehicleLimits c1_limits{2.0, 15.0, -3.0, 3.0};
  WorkloadParams workload;

  /// Paper-default configuration (Section V parameters).
  static LeftTurnSimConfig paper_defaults();

  /// The shared scenario math object for this configuration.
  std::shared_ptr<const scenario::LeftTurnScenario> make_scenario() const;
};

/// Which estimator feeds the embedded NN planner / the monitor.
struct AgentConfig {
  /// Wrap the planner in the compound planner (monitor + kappa_e).
  bool use_compound = true;

  /// Monitor + NN use the full information filter (Kalman fusion); when
  /// false the monitor uses sound reachability bounds only and the NN
  /// sees the naive extrapolation (pure-NN / basic behavior).
  bool use_info_filter = false;

  /// Feed the NN the aggressive (Eq. 8) window.
  bool use_aggressive = false;

  /// Buffers of the aggressive estimation.
  scenario::AggressiveBuffers buffers;

  /// Use the closed-form expert instead of a trained network as kappa_n
  /// (fast tests / baselines; the framework wraps any planner).
  bool use_expert_planner = false;
  planners::ExpertParams expert_params = planners::ExpertParams::conservative();

  /// Uncertainty-aversion of an ensemble kappa_n (only used when the
  /// blueprint lists ensemble members): the commanded acceleration is
  /// reduced by this many member standard deviations.
  double ensemble_sigma_penalty = 0.0;

  /// Message plausibility screens of every information filter in the
  /// stack (filter/plausibility.hpp). Permissive default = non-finite
  /// rejection only, bit-identical to the ungated stack.
  filter::GateConfig gate;

  /// Degradation-ladder thresholds (core/degradation.hpp); armed only on
  /// compound stacks, disarmed (pre-ladder behavior) by default.
  std::optional<core::LadderConfig> ladder;

  static AgentConfig pure_nn();
  static AgentConfig basic_compound();
  static AgentConfig ultimate_compound();
};

/// Reusable description of an agent: each episode assembles a fresh
/// control stack from it (estimator and monitor state is per episode).
struct AgentBlueprint {
  std::string name;
  std::shared_ptr<const scenario::LeftTurnScenario> scenario;
  std::shared_ptr<const nn::Mlp> net;  ///< null for expert agents
  /// Non-empty: kappa_n is a deep ensemble of these members (takes
  /// precedence over `net`).
  std::vector<std::shared_ptr<const nn::Mlp>> ensemble;
  sensing::SensorConfig sensor;
  AgentConfig config;
};

/// Optional per-step recording for figures and examples.
struct SimTrace {
  vehicle::Trajectory ego;
  vehicle::Trajectory c1;                 ///< oncoming, u frame
  std::vector<double> accel_commands;     ///< ego command per step
  std::vector<bool> emergency_flags;      ///< kappa_e engaged per step
  std::vector<double> tau1_lo, tau1_hi;   ///< NN-facing window per step
  std::vector<core::SwitchEvent> switches;  ///< monitor hand-overs
};

/// The left-turn scenario plugged into the generic engine.
class LeftTurnAdapter final : public ScenarioAdapter<scenario::LeftTurnWorld> {
 public:
  LeftTurnAdapter(LeftTurnSimConfig config, AgentBlueprint blueprint)
      : config_(std::move(config)), blueprint_(std::move(blueprint)) {
    CVSAFE_EXPECTS(blueprint_.scenario != nullptr,
                   "left turn: blueprint.scenario must be set");
    CVSAFE_EXPECTS(!config_.workload.p1_grid.empty(),
                   "left turn: workload.p1_grid must not be empty");
    CVSAFE_EXPECTS(start_speeds_within(config_.workload.v1_init_min,
                                       config_.workload.v1_init_max,
                                       config_.c1_limits),
                   "left turn: [workload.v1_init_min, workload.v1_init_max]"
                   " must be an ordered range within c1_limits' speeds");
  }

  std::string_view name() const override { return "left-turn"; }
  const RunConfig& run() const override { return config_; }
  std::unique_ptr<Episode<scenario::LeftTurnWorld>> make_episode(
      util::Rng& rng, std::size_t total_steps,
      std::uint64_t seed) const override;

  const LeftTurnSimConfig& config() const { return config_; }
  const AgentBlueprint& blueprint() const { return blueprint_; }

 private:
  LeftTurnSimConfig config_;
  AgentBlueprint blueprint_;
};

/// Runs one episode. \p seed drives every random choice (workload,
/// channel drops, sensor noise), so results are exactly reproducible and
/// different planners can be compared on *paired* workloads by sharing
/// seeds. \p trace, when non-null, receives the per-step recording.
RunResult run_left_turn_simulation(const LeftTurnSimConfig& config,
                                   const AgentBlueprint& blueprint,
                                   std::uint64_t seed,
                                   SimTrace* trace = nullptr);

/// Runs \p n left-turn episodes through the fleet engine (fleet.hpp),
/// with one NnPlanner::plan_batch call per cohort step for single-network
/// NN blueprints, and returns their RunResults in seed order for the
/// caller to fold (BatchStats::from_results, collect_metrics,
/// collect_fleet_telemetry). Under SeedPolicy::kPaired (the default)
/// seeds are base_seed .. base_seed + n - 1, so batches over one seed
/// range are *paired*. Every result is byte-identical to run_episodes
/// over the same seeds for any thread count or pool capacity (pinned by
/// tests/sim_fleet_test).
std::vector<RunResult> run_left_turn_fleet_records(
    const LeftTurnSimConfig& config, const AgentBlueprint& blueprint,
    std::size_t n, std::uint64_t base_seed = 1,
    const FleetConfig& fleet = {}, const FleetObsSinks& sinks = {});

}  // namespace cvsafe::sim
