#include "cvsafe/core/degradation.hpp"

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::core {

const char* to_string(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull:
      return "full";
    case DegradationLevel::kReachOnly:
      return "reach-only";
    case DegradationLevel::kSensorOnly:
      return "sensor-only";
    case DegradationLevel::kEmergencyBiased:
      return "emergency-biased";
  }
  return "?";
}

void LadderConfig::validate() const {
  CVSAFE_EXPECTS(stale_budget > 0.0 && stale_budget < 1e9,
                 "stale budget must be positive and finite");
  CVSAFE_EXPECTS(lost_budget >= stale_budget && lost_budget < 1e9,
                 "lost budget must be >= stale budget and finite");
  CVSAFE_EXPECTS(recover_margin > 0.0 && recover_margin <= 1.0,
                 "recover margin must lie in (0, 1]");
  CVSAFE_EXPECTS(recover_steps >= 1,
                 "recovery needs at least one clear step");
}

DegradationLevel DegradationLadder::target(const DegradationSignals& s,
                                           double scale) const {
  return ladder_target(config_, s, scale);
}

DegradationLevel DegradationLadder::update(std::size_t step,
                                           const DegradationSignals& s) {
  const DegradationLevel tgt = target(s, 1.0);
  const auto record = [&](DegradationLevel to) {
    ++stats_.transitions;
    if (transitions_.size() < kMaxTransitions) {
      transitions_.push_back(LadderTransition{step, level_, to});
    }
    level_ = to;
  };
  if (static_cast<int>(tgt) > static_cast<int>(level_)) {
    // Degrading is immediate: the planner must not run one step on
    // information the signals no longer justify.
    record(tgt);
    clear_streak_ = 0;
  } else if (static_cast<int>(tgt) < static_cast<int>(level_)) {
    // Recovery is hysteretic: one rung at a time, after recover_steps
    // consecutive steps that clear the tightened budgets.
    if (static_cast<int>(target(s, config_.recover_margin)) <
        static_cast<int>(level_)) {
      ++clear_streak_;
    } else {
      clear_streak_ = 0;
    }
    if (clear_streak_ >= config_.recover_steps) {
      record(static_cast<DegradationLevel>(static_cast<int>(level_) - 1));
      clear_streak_ = 0;
    }
  } else {
    clear_streak_ = 0;
  }
  ++stats_.steps_at[static_cast<std::size_t>(level_)];
  return level_;
}

}  // namespace cvsafe::core
