#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "cvsafe/filter/estimate.hpp"
#include "cvsafe/filter/fleet_estimator.hpp"
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
///
/// Two execution modes share every formula:
///
///   scalar  — the filter owns its KalmanFilter and computes its
///             reachability propagation inline in estimate(); this is the
///             reference implementation used by the per-episode engine.
///   pooled  — bind_fleet() moves the Kalman state into a shared
///             filter::FleetEstimator lane and the fleet engine batches
///             the per-step arithmetic through update_batch /
///             predict_batch / ReachSweep; estimate() then reads the
///             sweeps' caches. Both modes are bit-identical by
///             construction (shared kalman_core + shared propagate
///             kernels), pinned by tests/filter_fleet_test.cpp.

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

class ReachSweep;

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

  // A pool-bound filter owns a FleetEstimator slot; copying would
  // double-release it. The fleet pool holds filters in place.
  InformationFilter(const InformationFilter&) = delete;
  InformationFilter& operator=(const InformationFilter&) = delete;
  InformationFilter(InformationFilter&& other) noexcept;
  InformationFilter& operator=(InformationFilter&&) = delete;
  ~InformationFilter() override;

  /// Switches to pooled mode: the Kalman state moves into a lane of
  /// \p fleet (released on destruction) so the fleet engine can batch the
  /// predict/update arithmetic across every resident episode. Must be
  /// called before any reading/message is absorbed. A no-op for
  /// configurations without Kalman fusion — their only per-step state is
  /// the fused bounds, which the ReachSweep batches without a slot.
  void bind_fleet(FleetEstimator& fleet);

  /// True once bind_fleet has moved this filter's Kalman state into a
  /// pool lane.
  bool pool_bound() const { return fleet_ != nullptr; }

  /// Stages this filter's per-step sweep work at query time \p t: the
  /// fused-bound reachability propagation into \p reach and (pooled
  /// Kalman lanes) the state/covariance extrapolation into the fleet
  /// estimator's predict stage. After the sweeps run, estimate(t) is
  /// pure cache reads.
  void stage_sweeps(double t, ReachSweep& reach);

  /// Write-back seam of the ReachSweep: caches propagate(*fused_bounds(),
  /// query_t, limits()) so estimate(query_t) skips the inline
  /// propagation. Invalidated by every fuse (the cache never outlives the
  /// bounds it was computed from).
  void set_reach_cache(double query_t, const StateBounds& propagated) {
    reach_cache_ = propagated;
    reach_cache_query_ = query_t;
  }

  const vehicle::VehicleLimits& limits() const { return limits_; }

  void on_sensor(const sensing::SensorReading& reading) override;
  void on_message(const comm::Message& msg) override;

  /// Joined estimate at time \p t. The interval is the intersection of all
  /// enabled sources; if the (probabilistic) Kalman interval is disjoint
  /// from the (sound) reachability bounds, the reachability bounds win.
  StateEstimate estimate(double t) const override;

  const InfoFilterOptions& options() const { return options_; }

  /// Read access to the embedded Kalman filter (diagnostics, Fig. 6a).
  /// Only present in scalar mode with Kalman fusion enabled; pooled
  /// filters expose their state via kalman_view().
  const KalmanFilter& kalman() const {
    CVSAFE_EXPECTS(kalman_.has_value(),
                   "no embedded Kalman filter (disabled or pool-bound)");
    return *kalman_;
  }

  /// Snapshot of the Kalman state regardless of where it lives (the
  /// scalar filter or a fleet lane). Requires Kalman fusion enabled.
  kalman_core::KalmanView kalman_view() const {
    CVSAFE_EXPECTS(options_.use_kalman,
                   "kalman_view without Kalman fusion enabled");
    return fleet_ ? fleet_->view(fleet_slot_) : kalman_->view();
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
  /// (accept/reject events) and the Kalman filter, scalar or pool lane
  /// (rollback events). Pass nullptr to detach.
  void set_recorder(obs::Recorder* recorder) {
    gate_.set_recorder(recorder);
    if (kalman_) kalman_->set_recorder(recorder);
    if (fleet_ != nullptr) fleet_->set_recorder(fleet_slot_, recorder);
  }

  /// Filter health at time \p t: false when the Kalman NIS monitor has
  /// diverged or the gate rejected a message within its suspect-hold
  /// window. Drives the EMERGENCY-BIASED rung of the degradation ladder.
  bool consistent_at(double t) const {
    if (options_.use_kalman) {
      if (fleet_ ? (fleet_->initialized(fleet_slot_) &&
                    fleet_->nis(fleet_slot_).diverged())
                 : (kalman_->initialized() && kalman_->nis().diverged())) {
        return false;
      }
    }
    return !gate_.recently_rejected(t);
  }

 private:
  /// Intersects \p incoming (bounds at its own timestamp) into the
  /// recursive estimate: propagate the previous bounds to the incoming
  /// time, intersect, and guard against numerically empty results.
  void fuse(const StateBounds& incoming);

  /// The Kalman configuration both stores are built from.
  KalmanConfig kalman_config() const;

  vehicle::VehicleLimits limits_;
  sensing::SensorConfig sensor_;
  InfoFilterOptions options_;
  /// Scalar-mode Kalman state; engaged only when options_.use_kalman and
  /// the filter is not pool-bound. Leaving it out entirely for the sound
  /// bounds-only configurations halves the filter's footprint (the
  /// filter's dominant member is the rollback history ring).
  std::optional<KalmanFilter> kalman_;
  /// Pooled-mode Kalman state: a lane of the shared fleet estimator.
  FleetEstimator* fleet_ = nullptr;
  std::size_t fleet_slot_ = 0;
  PlausibilityGate gate_;

  /// Recursive sound bounds: the intersection of the propagated bounds
  /// from EVERY past message and sensor reading (a set-membership
  /// filter). Guarantees that the derived passing-window bounds evolve
  /// monotonically in absolute time — new noise can tighten but never
  /// displace them — which the runtime monitor's inductive safety
  /// argument relies on.
  std::optional<StateBounds> fused_;

  /// ReachSweep write-back: propagate(*fused_, reach_cache_query_,
  /// limits_) as of the last sweep; reset by every fuse.
  std::optional<StateBounds> reach_cache_;
  double reach_cache_query_ = -1.0;

  double last_msg_accel_ = 0.0;
  double last_sense_accel_ = 0.0;
  double last_msg_time_ = -1.0;
  double last_sense_time_ = -1.0;
};

/// The fleet engine's batched reachability pass: every pooled filter
/// stages its fused bounds (SoA per-field arrays) and one run() call
/// propagates all of them through the shared propagate_batch kernel,
/// writing each filter's reach cache back. Staging order is irrelevant —
/// lanes are independent — but each lane's result is bit-identical to the
/// inline propagate it replaces.
class ReachSweep {
 public:
  /// Drops every staged lane (start of a shard-step sweep).
  void clear();

  /// Stages \p filter's fused bounds for propagation to time \p t. A
  /// filter without fused bounds yet stages nothing (estimate() handles
  /// that case before touching the reach path).
  void stage(InformationFilter& filter, double t);

  /// Propagates every staged lane and writes the reach caches back.
  /// Lanes are batched over runs of value-identical limits so one kernel
  /// call covers a homogeneous pool.
  void run();

  std::size_t size() const { return filters_.size(); }

 private:
  std::vector<InformationFilter*> filters_;
  std::vector<vehicle::VehicleLimits> limits_;
  // Per-field SoA staging of StateBounds + target time (kernel input).
  std::vector<double> t0_, p_lo_, p_hi_, v_lo_, v_hi_, t_;
  std::vector<double> out_t_, out_p_lo_, out_p_hi_, out_v_lo_, out_v_hi_;
};

}  // namespace cvsafe::filter
