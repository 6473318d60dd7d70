#pragma once

#include <string_view>

/// \file safety_model.hpp
/// Scenario-specific safety knowledge consumed by the runtime monitor
/// (Section III-C) and the emergency planner (Section III-D).

namespace cvsafe::core {

/// Everything the runtime monitor needs to know about a scenario:
///  * membership of the estimated unsafe set X_u (Eq. 6 for the case
///    study) — used for diagnostics and offline verification;
///  * membership of the boundary safe set X_b (Eq. 3) — the emergency
///    trigger;
///  * the emergency control kappa_e satisfying Eq. 4;
///  * the aggressive shrink: a transformed world view in which the unsafe
///    set fed to the NN-based planner is the underestimated X_u,aggr
///    (Section III-C, Eq. 8 for the case study).
template <typename World>
class SafetyModelBase {
 public:
  virtual ~SafetyModelBase() = default;

  /// True iff the world view lies in the estimated unsafe set X_u.
  virtual bool in_unsafe_set(const World& world) const = 0;

  /// True iff the world view lies in the boundary safe set X_b, i.e. some
  /// feasible control could reach X_u within one control step (Eq. 3).
  virtual bool in_boundary_safe_set(const World& world) const = 0;

  /// Emergency control kappa_e; must satisfy Eq. 4: from any state in
  /// X_b, one control step under this command stays in the safe set.
  virtual double emergency_accel(const World& world) const = 0;

  /// Replaces, in place, the unsafe-set parameterization of \p world —
  /// a caller-owned copy of the monitor's view — by the aggressive
  /// (underestimated) unsafe set for the NN-based planner. The default is
  /// the identity (no shrink — basic compound planner).
  virtual void shrink_for_planner(World& world) const { (void)world; }

  /// *Inflates*, in place, the unsafe-set parameterization of \p world —
  /// a caller-owned copy of the monitor's view — so the X_b membership
  /// test fires earlier. Consumed by the EMERGENCY-BIASED rung of the
  /// degradation ladder (degradation.hpp) when the estimators report
  /// themselves inconsistent: with the margin toward kappa_e widened, a
  /// corrupted estimate has to be wrong by more than the inflation before
  /// the monitor misses the boundary. The default is the identity (no
  /// bias).
  virtual void bias_for_emergency(World& world) const { (void)world; }

  /// Short human-readable classification of WHY the world view lies in
  /// the boundary safe set (diagnostics / switch logs). Only called when
  /// in_boundary_safe_set returned true. The view must refer to static
  /// text: switch logs keep it, so entering kappa_e allocates nothing.
  virtual std::string_view boundary_reason(const World& world) const {
    (void)world;
    return "boundary";
  }

  /// Boundary slack s(t) (Eq. 5 for the case study): the signed margin
  /// the monitor's X_b test is computed from, for diagnostics and trace
  /// events. Models without a scalar slack report 0.
  virtual double boundary_slack(const World& world) const {
    (void)world;
    return 0.0;
  }
};

}  // namespace cvsafe::core
