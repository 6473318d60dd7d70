#pragma once

#include <cstdint>
#include <memory>

#include "cvsafe/scenario/multi_vehicle.hpp"
#include "cvsafe/sim/left_turn.hpp"

/// \file multi_vehicle.hpp
/// Closed-loop left turn against an oncoming platoon (the paper's general
/// n-vehicle system model, Section II-A) as a sim::Engine adapter: each
/// oncoming vehicle has its own V2V channel, sensor stream and
/// per-vehicle estimator pair.

namespace cvsafe::sim {

/// Configuration of the oncoming platoon.
struct MultiVehicleConfig {
  std::size_t num_oncoming = 2;   ///< vehicles on the opposing lane
  double platoon_spacing = 25.0;  ///< mean initial headway [m]
  double spacing_jitter = 8.0;    ///< +- uniform jitter on the headway [m]
};

/// Compound-planner configuration for the multi-vehicle run.
struct MultiAgentSetup {
  std::shared_ptr<const scenario::LeftTurnScenario> scenario;
  std::shared_ptr<const nn::Mlp> net;  ///< null -> analytic expert planner
  planners::ExpertParams expert_params =
      planners::ExpertParams::conservative();
  bool use_compound = true;
  bool use_info_filter = true;    ///< ultimate per-vehicle estimators
  bool use_aggressive = true;     ///< aggressive windows for the planner
  scenario::AggressiveBuffers buffers;
};

/// The multi-vehicle left-turn scenario plugged into the generic engine.
class MultiVehicleAdapter final
    : public ScenarioAdapter<scenario::LeftTurnMultiWorld> {
 public:
  MultiVehicleAdapter(LeftTurnSimConfig config, MultiVehicleConfig multi,
                      MultiAgentSetup setup);

  std::string_view name() const override { return "multi-vehicle"; }
  const RunConfig& run() const override { return config_; }
  std::unique_ptr<Episode<scenario::LeftTurnMultiWorld>> make_episode(
      util::Rng& rng, std::size_t total_steps,
      std::uint64_t seed) const override;

  const LeftTurnSimConfig& config() const { return config_; }
  const MultiVehicleConfig& multi() const { return multi_; }
  const MultiAgentSetup& setup() const { return setup_; }

 private:
  LeftTurnSimConfig config_;
  MultiVehicleConfig multi_;
  MultiAgentSetup setup_;
  std::shared_ptr<const scenario::MultiVehicleLeftTurn> math_;
};

/// Runs one episode with \p setup controlling the ego against
/// \p multi.num_oncoming vehicles driving random acceleration sequences.
RunResult run_multi_left_turn_simulation(const LeftTurnSimConfig& config,
                                         const MultiVehicleConfig& multi,
                                         const MultiAgentSetup& setup,
                                         std::uint64_t seed);

/// Batch of multi-vehicle episodes on the fleet engine (seed-paired under
/// the default policy; byte-identical to run_episodes over the same
/// seeds).
BatchStats run_multi_batch(const LeftTurnSimConfig& config,
                           const MultiVehicleConfig& multi,
                           const MultiAgentSetup& setup, std::size_t n,
                           std::uint64_t base_seed = 1,
                           std::size_t threads = 0,
                           SeedPolicy policy = SeedPolicy::kPaired);

}  // namespace cvsafe::sim
