#pragma once

#include <cstdint>
#include <span>

#include "cvsafe/sim/left_turn.hpp"

/// \file batch.hpp
/// Left-turn batch execution on the fleet engine and the paired-episode
/// winning percentage reported in Tables I and II of the paper.

namespace cvsafe::eval {

/// Runs \p n left-turn simulations with seeds base_seed .. base_seed +
/// n - 1 on the fleet engine at \p threads workers (0 = hardware): two
/// batches over one seed range see *paired* workloads and disturbances.
/// For a pool capacity or sinks, call sim::run_left_turn_fleet_records.
inline sim::BatchStats run_batch(const sim::LeftTurnSimConfig& config,
                                 const sim::AgentBlueprint& blueprint,
                                 std::size_t n, std::uint64_t base_seed = 1,
                                 std::size_t threads = 0) {
  sim::FleetConfig fleet;
  fleet.threads = threads;
  return sim::BatchStats::from_results(sim::run_left_turn_fleet_records(
      config, blueprint, n, base_seed, fleet));
}

/// Winning percentage of Tables I and II: the fraction of paired episodes
/// in which planner A achieves a higher eta than planner B. \p tolerance
/// treats differences up to it as wins for A, except that an exact tie is
/// a coin flip and counts half a win; the tables use a tolerance
/// equivalent to one control step of reaching time (eta values within
/// ~1e-3 of each other describe episodes that differ by at most one
/// 50 ms decision), matching the paper's tie-inclusive percentages.
double winning_fraction(std::span<const double> etas_a,
                        std::span<const double> etas_b,
                        double tolerance = 0.0);

}  // namespace cvsafe::eval
