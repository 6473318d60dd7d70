#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "cvsafe/core/degradation.hpp"

/// \file run_result.hpp
/// The unified episode outcome and batch aggregate shared by every
/// scenario: one RunResult / BatchStats family instead of the four
/// per-scenario copies the eval layer used to carry. run_episode returns
/// a RunResult and the fleet engine stores the same struct per episode,
/// so every fold below reads one type.

namespace cvsafe::obs {
class MetricsRegistry;
}  // namespace cvsafe::obs

namespace cvsafe::sim {

/// Outcome classification of one engine step (post-dynamics states).
struct StepStatus {
  bool collided = false;  ///< entered the unsafe set
  bool reached = false;   ///< entered the target set
};

/// Outcome of a single closed-loop episode, scenario-independent.
struct RunResult {
  bool collided = false;    ///< entered the unsafe set before the target
  bool reached = false;     ///< reached the target set
  double reach_time = 0.0;  ///< t_r when reached
  double eta = 0.0;         ///< evaluation function (Section II-A)
  std::size_t steps = 0;    ///< control steps executed
  std::size_t emergency_steps = 0;  ///< steps handled by kappa_e

  /// Degradation-ladder occupancy per level (all zero when the ladder is
  /// disarmed; filled by the engine from the compound planner).
  std::array<std::size_t, core::kNumDegradationLevels> ladder_steps{};
  std::size_t ladder_transitions = 0;  ///< logged level changes

  /// Plausibility-gate tally across every estimator of the episode
  /// (filled by the scenario's finalize).
  std::size_t messages_accepted = 0;
  std::size_t messages_rejected = 0;

  /// Rejections split by gate reason, indexed by obs::GateRejectReason
  /// order: non_finite, out_of_range, stale, implausible. Sums to
  /// messages_rejected; feeds the fleet telemetry's per-reason counters.
  std::array<std::size_t, 4> rejection_reasons{};
};

// The fleet keeps one RunResult per episode; its memory bound,
// O(pool + episodes * sizeof(RunResult)), relies on a plain value type.
static_assert(std::is_trivially_copyable_v<RunResult>);

/// Aggregate over a batch of episodes — the single implementation of the
/// safe-rate / reaching-time / emergency-frequency accumulation reported
/// in Tables I and II (and consumed by every scenario batch runner).
struct BatchStats {
  std::size_t n = 0;
  std::size_t safe_count = 0;       ///< episodes without collision
  std::size_t reached_count = 0;    ///< episodes reaching the target set
  std::size_t total_steps = 0;      ///< control steps across the batch
  std::size_t emergency_steps = 0;  ///< kappa_e steps across the batch
  double mean_eta = 0.0;            ///< mean evaluation value
  double mean_reach_time = 0.0;     ///< mean t_r over reached episodes
  std::vector<double> etas;         ///< per-episode eta (seed-aligned)

  double safe_rate() const {
    return n ? static_cast<double>(safe_count) / static_cast<double>(n) : 0.0;
  }
  double reach_rate() const {
    return n ? static_cast<double>(reached_count) / static_cast<double>(n)
             : 0.0;
  }
  double emergency_frequency() const {
    return total_steps ? static_cast<double>(emergency_steps) /
                             static_cast<double>(total_steps)
                       : 0.0;
  }

  /// Aggregates a seed-ordered result vector.
  static BatchStats from_results(std::span<const RunResult> results);

  /// Merges another batch (weighted means; etas concatenated in order).
  void merge(const BatchStats& other);
};

/// Folds one episode outcome into \p reg: episode/collision/reach/step
/// counters, ladder occupancy per level, message tallies, and the eta /
/// reach-time histograms (defined in obs_summary.cpp).
void collect_run_metrics(obs::MetricsRegistry& reg, const RunResult& result);

/// collect_run_metrics over a seed-ordered batch.
void collect_metrics(obs::MetricsRegistry& reg,
                     std::span<const RunResult> results);

}  // namespace cvsafe::sim
