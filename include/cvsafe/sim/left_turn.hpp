#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cvsafe/scenario/left_turn.hpp"
#include "cvsafe/sim/engine.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/left_turn_stack.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/trajectory.hpp"

/// \file left_turn.hpp
/// The closed-loop left-turn scenario of Section V as a sim::Engine
/// adapter: ego control stack vs an oncoming vehicle driving a random
/// acceleration sequence, under a configurable communication / sensing
/// disturbance.

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

/// Reusable description of an agent; make() produces a fresh control
/// stack (estimator state is per episode).
struct AgentBlueprint {
  std::string name;
  std::shared_ptr<const scenario::LeftTurnScenario> scenario;
  std::shared_ptr<const nn::Mlp> net;  ///< null for expert agents
  /// Non-empty: kappa_n is a deep ensemble of these members (takes
  /// precedence over `net`).
  std::vector<std::shared_ptr<const nn::Mlp>> ensemble;
  sensing::SensorConfig sensor;
  AgentConfig config;

  std::unique_ptr<LeftTurnStack> make() const;
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

/// Per-episode left-turn state: the oncoming vehicle (its channel/sensor
/// pair) plus the assembled ego control stack.
class LeftTurnEpisode final : public Episode<scenario::LeftTurnWorld> {
 public:
  /// Workload draw order (fixed; golden traces depend on it): oncoming
  /// grid index, initial speed, acceleration profile.
  LeftTurnEpisode(const LeftTurnSimConfig& config,
                  const AgentBlueprint& blueprint, util::Rng& rng,
                  std::size_t total_steps, std::uint64_t seed);

  void observe(scenario::LeftTurnWorld& world, double t, std::size_t step,
               util::Rng& rng) override;

  /// Fleet sweep decomposition of observe(): the per-lane op and RNG
  /// order (offer -> drain -> deliver -> sense -> build) is identical;
  /// the heavy arithmetic runs in the pool's batched sweeps between
  /// sweep_stage and sweep_build.
  bool bind_fleet(FleetStackContext& ctx) override;
  void sweep_pump(double t, std::size_t step, util::Rng& rng,
                  comm::MessageSlab& slab) override;
  void sweep_deliver(const comm::MessageSlab& slab, std::size_t first,
                     std::size_t last) override;
  void sweep_sense(double t, std::size_t step, util::Rng& rng) override;
  void sweep_stage(double t, filter::ReachSweep& reach) override;
  void sweep_build(scenario::LeftTurnWorld& world) override;

  void advance_traffic(std::size_t step, double dt) override;
  StepStatus check(const vehicle::VehicleState& ego) const override;

  /// Attaches the monitor statistics (compound stacks only) as a
  /// RunResult extra.
  void finalize(RunResult& result) const override;

  /// Wires the recorder through the ego stack and the oncoming vehicle's
  /// fault decorators (channel + sensor).
  void attach_recorder(obs::Recorder* recorder) override;

  /// Wires a flight-recorder ring through the ego stack (compound
  /// planner + gate seams).
  void attach_ring(obs::RingRecorder* ring) override;

  LeftTurnStack& stack() { return *stack_; }
  const LeftTurnStack& stack() const { return *stack_; }

  /// The oncoming vehicle's ground-truth snapshot of the current step
  /// (valid after observe(); used by trace recording).
  const vehicle::VehicleSnapshot& c1_snapshot() const {
    return c1_snapshot_;
  }

 private:
  const scenario::LeftTurnScenario* scn_;
  vehicle::DoubleIntegrator c1_dyn_;
  TrafficActor c1_;
  std::unique_ptr<LeftTurnStack> stack_;
  vehicle::VehicleSnapshot c1_snapshot_{};
};

/// The left-turn scenario plugged into the generic engine.
class LeftTurnAdapter final : public ScenarioAdapter<scenario::LeftTurnWorld> {
 public:
  LeftTurnAdapter(LeftTurnSimConfig config, AgentBlueprint blueprint)
      : config_(std::move(config)), blueprint_(std::move(blueprint)) {}

  std::string_view name() const override { return "left-turn"; }
  const RunConfig& run() const override { return config_; }
  std::unique_ptr<Episode<scenario::LeftTurnWorld>> make_episode(
      util::Rng& rng, std::size_t total_steps,
      std::uint64_t seed) const override;

  /// Every LeftTurnEpisode implements the sweep decomposition (for any
  /// agent configuration), so the fleet engine may batch the shard-step.
  bool fleet_sweeps() const override { return true; }

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
/// NN blueprints. Under SeedPolicy::kPaired (the default) seeds are
/// base_seed .. base_seed + n - 1, so batches over one seed range are
/// *paired*. Stats and metrics are byte-identical to run_episodes over
/// the same seeds for any thread count or pool capacity (pinned by
/// tests/sim_fleet_test).
FleetResult run_left_turn_fleet(const LeftTurnSimConfig& config,
                                const AgentBlueprint& blueprint,
                                std::size_t n, std::uint64_t base_seed = 1,
                                const FleetConfig& fleet = {},
                                const FleetObsSinks& sinks = {});

/// The fleet-engine records (seed-ordered, pre-fold) of the same run —
/// the campaign layer folds these itself to keep per-cell CSVs
/// byte-identical.
std::vector<FleetRecord> run_left_turn_fleet_records(
    const LeftTurnSimConfig& config, const AgentBlueprint& blueprint,
    std::size_t n, std::uint64_t base_seed = 1,
    const FleetConfig& fleet = {}, const FleetObsSinks& sinks = {});

}  // namespace cvsafe::sim
