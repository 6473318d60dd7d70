#pragma once

#include <optional>

#include "cvsafe/filter/estimate.hpp"
#include "cvsafe/filter/kalman.hpp"
#include "cvsafe/filter/plausibility.hpp"
#include "cvsafe/filter/reachability.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file info_filter.hpp
/// The information filter of Section III-B: reachability analysis on
/// delayed messages joined (interval intersection) with the Kalman-filter
/// confidence interval on noisy sensor readings.
///
/// The same class, with the Kalman fusion disabled, implements the sound
/// set-bound estimator used by the *basic* compound planner.

namespace cvsafe::filter {

/// Feature switches of the information filter.
struct InfoFilterOptions {
  /// Reachability propagation of the latest V2V message (Eq. 2).
  bool use_message_reachability = true;

  /// Reachability propagation of the latest raw sensor reading
  /// (measurement noise inflates the initial bounds).
  bool use_sensor_reachability = true;

  /// Kalman-filter interval fusion (the paper's information filter).
  bool use_kalman = false;

  /// Message rollback inside the Kalman filter (paper's extension).
  bool kalman_message_rollback = true;

  /// Options of the basic compound planner (sound bounds only).
  static InfoFilterOptions basic();

  /// Options of the ultimate compound planner (full information filter).
  static InfoFilterOptions ultimate();
};

/// Per-observed-vehicle estimator fusing messages and sensor readings.
class InformationFilter final : public Estimator {
 public:
  /// \param limits     actuation limits of the observed vehicle
  /// \param sensor     noise/timing model of the onboard sensor
  /// \param options    which fusion stages are enabled
  /// \param gate       message plausibility screens (default: permissive,
  ///                   i.e. non-finite rejection only — bit-identical to
  ///                   the ungated filter on honest channels)
  InformationFilter(vehicle::VehicleLimits limits,
                    sensing::SensorConfig sensor, InfoFilterOptions options,
                    GateConfig gate = GateConfig::permissive());

  const vehicle::VehicleLimits& limits() const { return limits_; }

  void on_sensor(const sensing::SensorReading& reading) override;
  void on_message(const comm::Message& msg) override;

  /// Joined estimate at time \p t. The interval is the intersection of all
  /// enabled sources; if the (probabilistic) Kalman interval is disjoint
  /// from the (sound) reachability bounds, the reachability bounds win.
  StateEstimate estimate(double t) const override;

  const InfoFilterOptions& options() const { return options_; }

  /// Read access to the embedded Kalman filter (diagnostics, Fig. 6a).
  /// Only present with Kalman fusion enabled.
  const KalmanFilter& kalman() const {
    CVSAFE_EXPECTS(kalman_.has_value(),
                   "no embedded Kalman filter (Kalman fusion disabled)");
    return *kalman_;
  }

  /// Snapshot of the Kalman state. Requires Kalman fusion enabled.
  kalman_core::KalmanView kalman_view() const {
    CVSAFE_EXPECTS(options_.use_kalman,
                   "kalman_view without Kalman fusion enabled");
    return kalman_->view();
  }

  /// The current recursive set-membership bounds (time of last fusion).
  const std::optional<StateBounds>& fused_bounds() const { return fused_; }

  /// Timestamp of the newest *accepted* message (-1 before the first).
  double last_message_time() const { return last_msg_time_; }

  /// Newest information of any kind absorbed so far (-1 before any).
  double newest_information_time() const {
    return last_msg_time_ > last_sense_time_ ? last_msg_time_
                                             : last_sense_time_;
  }

  /// Gate decisions over this estimator's message stream.
  const RejectionCounters& rejections() const { return gate_.counters(); }

  /// Read access to the plausibility gate (thresholds, suspect state).
  const PlausibilityGate& gate() const { return gate_; }

  /// Attach an event sink to both embedded stages: the plausibility gate
  /// (accept/reject events) and the Kalman filter (rollback events). Pass
  /// nullptr to detach.
  void set_recorder(obs::Recorder* recorder) {
    gate_.set_recorder(recorder);
    if (kalman_) kalman_->set_recorder(recorder);
  }

  /// Filter health at time \p t: false when the Kalman NIS monitor has
  /// diverged or the gate rejected a message within its suspect-hold
  /// window. Drives the EMERGENCY-BIASED rung of the degradation ladder.
  bool consistent_at(double t) const {
    if (options_.use_kalman && kalman_->initialized() &&
        kalman_->nis().diverged()) {
      return false;
    }
    return !gate_.recently_rejected(t);
  }

 private:
  /// Intersects \p incoming (bounds at its own timestamp) into the
  /// recursive estimate: propagate the previous bounds to the incoming
  /// time, intersect, and guard against numerically empty results.
  void fuse(const StateBounds& incoming);

  vehicle::VehicleLimits limits_;
  sensing::SensorConfig sensor_;
  InfoFilterOptions options_;
  /// Kalman state; engaged only when options_.use_kalman. Leaving it out
  /// entirely for the sound bounds-only configurations halves the
  /// filter's footprint (the filter's dominant member is the rollback
  /// history ring).
  std::optional<KalmanFilter> kalman_;
  PlausibilityGate gate_;

  /// Recursive sound bounds: the intersection of the propagated bounds
  /// from EVERY past message and sensor reading (a set-membership
  /// filter). Guarantees that the derived passing-window bounds evolve
  /// monotonically in absolute time — new noise can tighten but never
  /// displace them — which the runtime monitor's inductive safety
  /// argument relies on.
  std::optional<StateBounds> fused_;

  double last_msg_accel_ = 0.0;
  double last_sense_accel_ = 0.0;
  double last_msg_time_ = -1.0;
  double last_sense_time_ = -1.0;
};

}  // namespace cvsafe::filter
