#pragma once

#include <memory>

#include "cvsafe/core/safety_model.hpp"
#include "cvsafe/scenario/left_turn.hpp"
#include "cvsafe/scenario/world.hpp"

/// \file safety_model.hpp
/// Binds the left-turn case-study mathematics (Section IV) to the generic
/// framework interfaces (Section III).

namespace cvsafe::scenario {

/// SafetyModelBase implementation for the unprotected left turn.
class LeftTurnSafetyModel final
    : public core::SafetyModelBase<LeftTurnWorld> {
 public:
  /// \param scenario  shared case-study math
  /// \param buffers   aggressive unsafe-set buffers (Eq. 8)
  LeftTurnSafetyModel(std::shared_ptr<const LeftTurnScenario> scenario,
                      AggressiveBuffers buffers = {});

  /// Eq. 6 on the monitor's sound window.
  bool in_unsafe_set(const LeftTurnWorld& world) const override;

  /// Eq. 3 closed form on the monitor's sound window.
  bool in_boundary_safe_set(const LeftTurnWorld& world) const override;

  /// kappa_e of Section IV.
  double emergency_accel(const LeftTurnWorld& world) const override;

  /// Replaces the NN-facing window with the aggressive estimate (Eq. 8)
  /// computed from the NN-facing state estimate.
  void shrink_for_planner(LeftTurnWorld& world) const override;

  /// EMERGENCY-BIASED ladder rung: inflates the monitor passing window by
  /// kEmergencyBias seconds on each side, so the X_b membership test
  /// fires earlier while the estimators are suspect.
  void bias_for_emergency(LeftTurnWorld& world) const override;

  static constexpr double kEmergencyBias = 0.25;  ///< window pad [s]

  /// "slack band" / "committed" / "inside zone" — which X_b branch fired.
  std::string_view boundary_reason(
      const LeftTurnWorld& world) const override;

  /// Slack s(t) of Eq. 5 evaluated on the ego state.
  double boundary_slack(const LeftTurnWorld& world) const override;

  const LeftTurnScenario& scenario() const { return *scenario_; }
  const AggressiveBuffers& buffers() const { return buffers_; }

 private:
  std::shared_ptr<const LeftTurnScenario> scenario_;
  AggressiveBuffers buffers_;
};

}  // namespace cvsafe::scenario
