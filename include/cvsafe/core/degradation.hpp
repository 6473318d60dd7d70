#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <vector>

/// \file degradation.hpp
/// Graceful-degradation ladder for the compound planner.
///
/// Under communication disturbance the planner's information quality
/// decays in recognizable stages; this ladder makes the response to each
/// stage explicit instead of implicit in the estimators:
///
///   FULL             fresh message within the dt_d budget: aggressive
///                    passing windows (Eq. 8) are justified.
///   REACH-ONLY       message stale beyond the budget: reachability has
///                    widened, fall back to the conservative windows
///                    (Eq. 7) by disabling the planner-view shrink.
///   SENSOR-ONLY      no usable message at all: same conservative
///                    posture, sensing alone carries the estimate.
///   EMERGENCY-BIASED filter inconsistent (diverged Kalman or a payload
///                    rejected by the plausibility gate): additionally
///                    bias the X_b boundary check toward the emergency
///                    maneuver kappa_e (SafetyModelBase::bias_for_emergency).
///
/// Transitions downward (worse) are immediate; transitions upward
/// (recovery) are hysteretic: the signals must clear a *tighter* version
/// of the thresholds (budgets scaled by recover_margin < 1) for
/// recover_steps consecutive steps, and recovery climbs one rung at a
/// time. This prevents level chatter on a channel that oscillates around
/// a budget boundary.

namespace cvsafe::core {

/// Ladder rungs, ordered from best to worst information quality.
enum class DegradationLevel : int {
  kFull = 0,
  kReachOnly = 1,
  kSensorOnly = 2,
  kEmergencyBiased = 3,
};

inline constexpr std::size_t kNumDegradationLevels = 4;

const char* to_string(DegradationLevel level);

/// Per-step information-quality signals aggregated over every observed
/// vehicle (worst case: max age, AND of consistency).
struct DegradationSignals {
  /// Age of the newest accepted message, seconds (infinity before any).
  double message_age = std::numeric_limits<double>::infinity();
  /// True once any message has ever been accepted.
  bool have_message = false;
  /// False when any estimator reports itself inconsistent.
  bool filter_consistent = true;
};

/// Thresholds and hysteresis of the ladder.
struct LadderConfig {
  /// Message age beyond which aggressive windows are no longer justified
  /// (the paper's dt_d delay budget).
  double stale_budget = 0.3;
  /// Message age beyond which the message stream counts as lost.
  double lost_budget = 1.0;
  /// Recovery requires the signals to clear budgets scaled by this
  /// factor (< 1 = tighter than the degrade thresholds).
  double recover_margin = 0.5;
  /// Consecutive clear steps required before climbing one rung.
  std::size_t recover_steps = 5;

  /// Contract-checks: budgets ordered and positive, margin in (0, 1],
  /// recover_steps >= 1; rejects NaN.
  void validate() const;
};

/// One logged level change.
struct LadderTransition {
  std::size_t step = 0;
  DegradationLevel from = DegradationLevel::kFull;
  DegradationLevel to = DegradationLevel::kFull;
};

/// Per-episode occupancy and transition tally.
struct DegradationStats {
  std::array<std::size_t, kNumDegradationLevels> steps_at{};
  std::size_t transitions = 0;
};

/// The ladder state machine. One instance per episode (deterministic:
/// pure function of the signal sequence).
class DegradationLadder {
 public:
  explicit DegradationLadder(LadderConfig config) : config_(config) {
    config_.validate();
  }

  /// Absorbs the signals of one control step and returns the level the
  /// planner must use for this step.
  DegradationLevel update(std::size_t step, const DegradationSignals& s);

  DegradationLevel level() const { return level_; }
  const LadderConfig& config() const { return config_; }
  const DegradationStats& stats() const { return stats_; }

  /// Logged transitions, capped at kMaxTransitions (overflow counted in
  /// stats().transitions regardless).
  const std::vector<LadderTransition>& transitions() const {
    return transitions_;
  }

  static constexpr std::size_t kMaxTransitions = 512;

 private:
  /// The level \p s calls for with budgets scaled by \p scale (1 for
  /// degrade decisions, recover_margin for the hysteretic recovery check).
  DegradationLevel target(const DegradationSignals& s, double scale) const;

  LadderConfig config_;
  DegradationLevel level_ = DegradationLevel::kFull;
  std::size_t clear_streak_ = 0;
  DegradationStats stats_;
  std::vector<LadderTransition> transitions_;
};

}  // namespace cvsafe::core
