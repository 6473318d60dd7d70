#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/filter/naive.hpp"
#include "cvsafe/planners/ensemble.hpp"
#include "cvsafe/planners/expert.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/scenario/safety_model.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/sim/fleet_context.hpp"

/// \file left_turn_stack.hpp
/// Assembly of one ego-vehicle control stack for the left-turn scenario:
/// estimators -> runtime monitor -> (NN | emergency) planner, per Fig. 2.
///
/// The configuration space covers every planner variant evaluated in the
/// paper plus the ablation crosses:
///
///   pure NN            — naive estimator, no monitor;
///   basic compound     — naive estimator for the NN, sound reachability
///                        bounds for the monitor, no aggressive shrink;
///   ultimate compound  — information filter (reachability ∩ Kalman) for
///                        both, aggressive unsafe set for the NN;
///   ablations          — each technique toggled independently.

namespace cvsafe::sim {

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
  /// stack is constructed with ensemble members): the commanded
  /// acceleration is reduced by this many member standard deviations.
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

/// One ego control stack with per-episode estimator state.
class LeftTurnStack {
 public:
  /// \param scenario  shared case-study math
  /// \param net       trained planner network (may be null when
  ///                  config.use_expert_planner is set)
  /// \param sensor    sensor model (noise feeds estimator construction)
  LeftTurnStack(std::shared_ptr<const scenario::LeftTurnScenario> scenario,
                std::shared_ptr<const nn::Mlp> net,
                sensing::SensorConfig sensor, AgentConfig config);

  /// Deep-ensemble variant: kappa_n is the ensemble mean, optionally
  /// reduced by config.ensemble_sigma_penalty member deviations.
  LeftTurnStack(std::shared_ptr<const scenario::LeftTurnScenario> scenario,
                std::vector<std::shared_ptr<const nn::Mlp>> ensemble,
                sensing::SensorConfig sensor, AgentConfig config);

  /// Binds the stack's pool-resident state into a fleet worker context:
  /// every information filter's Kalman lane (no-op for configurations
  /// without Kalman fusion) and the compound planner's ladder slot.
  /// Called once at fleet admission, before the first observation.
  void bind_fleet(FleetStackContext& ctx);

  /// Stages the per-step sweep work of every information filter at query
  /// time \p t (reachability propagation + pooled Kalman extrapolation);
  /// the fleet engine runs the batched sweeps before build_world.
  void stage_sweeps(double t, filter::ReachSweep& reach);

  /// Feeds a sensor reading of the oncoming vehicle.
  void observe_sensor(const sensing::SensorReading& reading);

  /// Feeds a delivered V2V message.
  void observe_message(const comm::Message& msg);

  /// Fills the estimator-derived fields of a world whose t/ego are
  /// already set (engine phase 1).
  void build_world(scenario::LeftTurnWorld& world);

  /// Plans the ego acceleration for the current step (builds the world
  /// view internally; equivalent to build_world + planner().plan()).
  double act(double t, const vehicle::VehicleState& ego);

  /// True iff the last planning step was handled by the emergency planner.
  bool last_was_emergency() const;

  /// Monitor statistics (empty stats when not a compound stack).
  core::MonitorStats monitor_stats() const;

  /// Planner hand-over events (empty when not a compound stack).
  std::vector<core::SwitchEvent> switch_events() const;

  /// Plausibility-gate tally summed over the stack's information
  /// filters: {messages accepted, messages rejected}.
  std::pair<std::size_t, std::size_t> message_tally() const;

  /// Rejections summed per gate reason (obs::GateRejectReason order:
  /// non_finite, out_of_range, stale, implausible).
  std::array<std::size_t, 4> message_reasons() const;

  const AgentConfig& config() const { return config_; }

  /// The assembled planner (the compound wrapper when configured).
  const std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>>&
  planner_ptr() const {
    return planner_;
  }

  /// The compound planner, or nullptr when the stack is unmonitored.
  core::CompoundPlanner<scenario::LeftTurnWorld>* compound() const {
    return compound_;
  }

  /// Wires an event sink through the stack: the monitor (compound
  /// stacks) and the plausibility gate / Kalman filter of every
  /// information filter. Pass nullptr to detach.
  void attach_recorder(obs::Recorder* recorder);

 private:
  /// Builds the estimators and wraps \p inner per the configuration.
  void setup(std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>>
                 inner,
             const sensing::SensorConfig& sensor);

  std::shared_ptr<const scenario::LeftTurnScenario> scenario_;
  AgentConfig config_;

  std::unique_ptr<filter::Estimator> nn_estimator_;
  std::unique_ptr<filter::Estimator> monitor_estimator_;  ///< may alias null

  /// Typed non-owning views of the estimators above when they are
  /// information filters (gate tallies, degradation signals).
  filter::InformationFilter* nn_filter_ = nullptr;
  filter::InformationFilter* monitor_filter_ = nullptr;

  std::shared_ptr<core::PlannerBase<scenario::LeftTurnWorld>> planner_;
  core::CompoundPlanner<scenario::LeftTurnWorld>* compound_ = nullptr;
};

}  // namespace cvsafe::sim
