#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cvsafe/core/planner.hpp"
#include "cvsafe/core/safety_model.hpp"
#include "cvsafe/scenario/left_turn.hpp"
#include "cvsafe/scenario/world.hpp"
#include "cvsafe/util/interval_set.hpp"

/// \file multi_vehicle.hpp
/// Multi-vehicle generalization of the left-turn case study.
///
/// The paper's system model has n vehicles (Section II-A: the ego
/// receives messages from C_1 ... C_{n-1}); the case study evaluates one
/// oncoming vehicle. This module generalizes the safety mathematics to
/// any number of oncoming vehicles on the opposing lane: the set of
/// times at which the conflict zone may be occupied becomes the UNION of
/// the per-vehicle passing windows (an IntervalSet), and the monitor /
/// emergency planner reason about resolvability against that union —
/// pass ahead of everyone, or yield past the last conflicting window.

namespace cvsafe::scenario {

/// World view with any number of oncoming vehicles.
struct LeftTurnMultiWorld {
  double t = 0.0;
  vehicle::VehicleState ego;
  std::vector<filter::StateEstimate> oncoming_monitor;  ///< sound, per car
  std::vector<filter::StateEstimate> oncoming_nn;       ///< NN-facing
  util::IntervalSet tau_monitor;  ///< union of conservative windows
  util::IntervalSet tau_nn;       ///< union of NN-facing windows

  /// Resets to a default-constructed world but keeps every container's
  /// storage, so refilling it each control step allocates nothing.
  void clear() {
    t = 0.0;
    ego = {};
    oncoming_monitor.clear();
    oncoming_nn.clear();
    tau_monitor.clear();
    tau_nn.clear();
  }
};

/// Safety mathematics against a union of passing windows.
class MultiVehicleLeftTurn {
 public:
  explicit MultiVehicleLeftTurn(
      std::shared_ptr<const LeftTurnScenario> base);

  const LeftTurnScenario& base() const { return *base_; }

  /// Replaces \p tau with the union of the conservative (Eq. 7) windows
  /// of all oncoming vehicles (tau's storage is reused).
  void conservative_windows(std::span<const filter::StateEstimate> oncoming,
                            util::IntervalSet& tau) const;

  /// Replaces \p tau with the union of the aggressive (Eq. 8) windows.
  void aggressive_windows(std::span<const filter::StateEstimate> oncoming,
                          const AggressiveBuffers& buffers,
                          util::IntervalSet& tau) const;

  /// Eq. 6 generalized: negative slack and the ego's projected passing
  /// interval meets some possibly-occupied time.
  bool in_unsafe_set(double t, double p0, double v0,
                     const util::IntervalSet& tau) const;

  /// Conflict resolvability against the union (conservative: pass ahead
  /// of every window under full throttle, or delay entry past the last
  /// window under full braking; passing through gaps between windows is
  /// not credited).
  bool resolvable(double t, double p0, double v0,
                  const util::IntervalSet& tau) const;

  /// Boundary safe set, same branch structure as the single-vehicle
  /// implementation (slack band / committed / inside zone).
  bool in_boundary_safe_set(double t, double p0, double v0,
                            const util::IntervalSet& tau) const;

  /// Emergency planner against the union.
  double emergency_accel(double t, double p0, double v0,
                         const util::IntervalSet& tau) const;

 private:
  /// Full-throttle occupancy [zone entry, zone exit] from (p0, v0).
  util::Interval full_throttle_occupancy(double t, double p0,
                                         double v0) const;

  std::shared_ptr<const LeftTurnScenario> base_;
};

/// SafetyModelBase adapter for the multi-vehicle world.
class MultiVehicleSafetyModel final
    : public core::SafetyModelBase<LeftTurnMultiWorld> {
 public:
  MultiVehicleSafetyModel(std::shared_ptr<const MultiVehicleLeftTurn> math,
                          AggressiveBuffers buffers = {});

  bool in_unsafe_set(const LeftTurnMultiWorld& world) const override;
  bool in_boundary_safe_set(const LeftTurnMultiWorld& world) const override;
  double emergency_accel(const LeftTurnMultiWorld& world) const override;

  /// Replaces tau_nn with the union of aggressive windows.
  void shrink_for_planner(LeftTurnMultiWorld& world) const override;

  /// EMERGENCY-BIASED ladder rung: inflates every monitor window by
  /// LeftTurnSafetyModel::kEmergencyBias seconds on each side.
  void bias_for_emergency(LeftTurnMultiWorld& world) const override;

 private:
  std::shared_ptr<const MultiVehicleLeftTurn> math_;
  AggressiveBuffers buffers_;
};

/// Adapts any single-vehicle left-turn planner (NN or expert) to the
/// multi-vehicle world: the planner is shown the *first upcoming* window
/// of the union — the nearest conflict — which is re-evaluated every
/// step, so later windows surface as earlier ones pass.
class FirstConflictAdapter final
    : public core::PlannerBase<LeftTurnMultiWorld> {
 public:
  explicit FirstConflictAdapter(
      std::shared_ptr<core::PlannerBase<LeftTurnWorld>> inner);

  double plan(const LeftTurnMultiWorld& world) override;
  std::string_view name() const override { return name_; }

 private:
  std::shared_ptr<core::PlannerBase<LeftTurnWorld>> inner_;
  std::string name_;
};

}  // namespace cvsafe::scenario
