#pragma once

#include <algorithm>
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

/// The level \p s calls for under \p config with budgets scaled by
/// \p scale (1 for degrade decisions, recover_margin for the hysteretic
/// recovery check). Shared by the per-episode DegradationLadder and the
/// pool-resident FleetLadder so both run the identical threshold logic.
inline DegradationLevel ladder_target(const LadderConfig& config,
                                      const DegradationSignals& s,
                                      double scale) {
  if (!s.filter_consistent) return DegradationLevel::kEmergencyBiased;
  if (!s.have_message || s.message_age > config.lost_budget * scale) {
    return DegradationLevel::kSensorOnly;
  }
  if (s.message_age > config.stale_budget * scale) {
    return DegradationLevel::kReachOnly;
  }
  return DegradationLevel::kFull;
}

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
  /// The level the signals call for when budgets are scaled by \p scale.
  DegradationLevel target(const DegradationSignals& s, double scale) const;

  LadderConfig config_;
  DegradationLevel level_ = DegradationLevel::kFull;
  std::size_t clear_streak_ = 0;
  DegradationStats stats_;
  std::vector<LadderTransition> transitions_;
};

/// Pool-resident SoA ladder state for the fleet engine: the hysteresis
/// state (level, clear streak) and the occupancy/transition tallies of
/// every resident episode live in per-field contiguous arrays, so the
/// fleet gate/ladder sweep touches dense memory instead of one
/// DegradationLadder object (with its transition-log vector) per lane.
///
/// update() is bit-identical to DegradationLadder::update on the same
/// signal sequence — both call ladder_target for every decision. Neither
/// ladder emits events: the compound planner records the transitions of
/// both. The deliberate non-feature: no per-transition log.
/// Slots are free-listed and reset on acquire; lane compaction in the
/// episode pool never moves ladder state, only the runners that hold the
/// slot handles.
class FleetLadder {
 public:
  FleetLadder() = default;

  /// Claims a slot running \p config (validated), reset to kFull.
  std::size_t acquire(const LadderConfig& config) {
    config.validate();
    if (free_.empty()) {
      const std::size_t slot = config_.size();
      config_.push_back(config);
      level_.push_back(DegradationLevel::kFull);
      clear_streak_.push_back(0);
      steps_at_.resize(steps_at_.size() + kNumDegradationLevels, 0);
      transitions_.push_back(0);
      return slot;
    }
    const std::size_t slot = free_.back();
    free_.pop_back();
    config_[slot] = config;
    level_[slot] = DegradationLevel::kFull;
    clear_streak_[slot] = 0;
    std::fill_n(steps_at_.begin() +
                    static_cast<std::ptrdiff_t>(slot * kNumDegradationLevels),
                kNumDegradationLevels, std::size_t{0});
    transitions_[slot] = 0;
    return slot;
  }

  /// Returns \p slot to the free list.
  void release(std::size_t slot) { free_.push_back(slot); }

  /// One control step of lane \p slot; same decision procedure as
  /// DegradationLadder::update (degrade immediately, recover one rung
  /// after recover_steps consecutive tightened-budget clears).
  DegradationLevel update(std::size_t slot, const DegradationSignals& s) {
    const LadderConfig& config = config_[slot];
    DegradationLevel& level = level_[slot];
    const DegradationLevel tgt = ladder_target(config, s, 1.0);
    if (static_cast<int>(tgt) > static_cast<int>(level)) {
      ++transitions_[slot];
      level = tgt;
      clear_streak_[slot] = 0;
    } else if (static_cast<int>(tgt) < static_cast<int>(level)) {
      if (static_cast<int>(ladder_target(config, s, config.recover_margin)) <
          static_cast<int>(level)) {
        ++clear_streak_[slot];
      } else {
        clear_streak_[slot] = 0;
      }
      if (clear_streak_[slot] >= config.recover_steps) {
        ++transitions_[slot];
        level = static_cast<DegradationLevel>(static_cast<int>(level) - 1);
        clear_streak_[slot] = 0;
      }
    } else {
      clear_streak_[slot] = 0;
    }
    ++steps_at_[slot * kNumDegradationLevels +
                static_cast<std::size_t>(level)];
    return level;
  }

  DegradationLevel level(std::size_t slot) const { return level_[slot]; }

  /// Occupancy/transition tally of lane \p slot (same numbers a scalar
  /// DegradationLadder::stats() would report).
  DegradationStats stats(std::size_t slot) const {
    DegradationStats out;
    for (std::size_t i = 0; i < kNumDegradationLevels; ++i) {
      out.steps_at[i] = steps_at_[slot * kNumDegradationLevels + i];
    }
    out.transitions = transitions_[slot];
    return out;
  }

  std::size_t capacity() const { return config_.size(); }

 private:
  std::vector<LadderConfig> config_;
  std::vector<DegradationLevel> level_;
  std::vector<std::size_t> clear_streak_;
  /// Flattened occupancy counters, [slot * kNumDegradationLevels + level].
  std::vector<std::size_t> steps_at_;
  std::vector<std::size_t> transitions_;
  std::vector<std::size_t> free_;
};

}  // namespace cvsafe::core
