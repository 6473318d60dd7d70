#pragma once

#include <cstddef>
#include <optional>

#include "cvsafe/comm/message.hpp"
#include "cvsafe/filter/kalman_core.hpp"
#include "cvsafe/filter/reachability.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file plausibility.hpp
/// Message plausibility gate: the single choke point through which every
/// V2V payload must pass before an estimator consumes it.
///
/// Under the paper's model the message *content* is exact — only delivery
/// is disturbed — so the permissive default gate rejects nothing except
/// non-finite payloads and is bit-identical to ungated behavior. Under
/// fault injection (see fault/faulty_channel.hpp) payloads may be
/// corrupted or timestamp-spoofed; the hardened() gate then screens each
/// message against the vehicle's actuation envelope, a staleness budget,
/// the estimator's own sound set-membership bounds, and the Kalman
/// filter's innovation statistic before it can touch filter state.
///
/// The project lint rule `no-unchecked-message-fields` forbids direct
/// `Message` payload access inside filter/ outside this gate.

namespace cvsafe::filter {

/// Which screens the gate runs and how tight they are. Every screen is
/// individually disabled by its zero default, so GateConfig{} rejects
/// only non-finite payloads.
struct GateConfig {
  /// Reject payload velocity/acceleration outside the actuation envelope
  /// (inflated by range_margin on each side).
  bool check_range = false;
  double range_margin = 0.5;

  /// Reject payloads whose timestamp is older than the newest already
  /// absorbed information by more than max_age seconds (0 = off). Catches
  /// stale-timestamp spoofing without needing a receive-time clock.
  double max_age = 0.0;

  /// Reject payloads outside the estimator's propagated set-membership
  /// bounds inflated by bound_margin (0 = off). Sound bounds contain the
  /// true state, so an honest payload can never fail this screen.
  double bound_margin = 0.0;

  /// Reject payloads whose normalized innovation against the Kalman
  /// prediction exceeds nis_gate (0 = off; only applies once the Kalman
  /// filter is initialized and the payload is not in its past).
  double nis_gate = 0.0;

  /// When positive, accepted payloads are fused as boxes of these
  /// half-widths instead of exact points: under corruption faults a
  /// payload that survives screening may still be perturbed, so treating
  /// it as exact would poison the sound bounds.
  double trust_margin_p = 0.0;
  double trust_margin_v = 0.0;

  /// How long (s) after a rejection the estimator reports itself suspect
  /// (see PlausibilityGate::recently_rejected).
  double suspect_hold = 0.5;

  /// Default gate: non-finite screening only. Bit-identical to the
  /// pre-gate filters on every honest channel.
  static GateConfig permissive();

  /// Fault-campaign gate: all screens armed with paper-scale thresholds.
  static GateConfig hardened();

  /// Contract-checks every threshold (margins finite and >= 0, gates
  /// >= 0; rejects NaN).
  void validate() const;
};

/// Per-estimator tally of gate decisions (reset with the estimator).
struct RejectionCounters {
  std::size_t accepted = 0;
  std::size_t non_finite = 0;
  std::size_t out_of_range = 0;
  std::size_t stale = 0;
  std::size_t implausible = 0;  ///< failed bound or innovation screen

  std::size_t total_rejected() const {
    return non_finite + out_of_range + stale + implausible;
  }
};

/// A payload that passed every screen. Estimators must consume these
/// fields rather than the raw Message.
struct ScreenedMessage {
  double t = 0.0;
  double p = 0.0;
  double v = 0.0;
  double a = 0.0;
};

/// Stateful screen for one estimator's message stream.
class PlausibilityGate {
 public:
  PlausibilityGate() : PlausibilityGate(GateConfig::permissive()) {}
  explicit PlausibilityGate(GateConfig config) : config_(config) {
    config_.validate();
  }

  /// Runs every armed screen, in order: non-finite, actuation range,
  /// staleness (vs \p newest_time, the newest information the estimator
  /// has absorbed), set membership (vs \p fused propagated to the payload
  /// time), innovation (vs \p kalman, may be null). The Kalman state is
  /// passed as a layout-independent KalmanView so scalar filters and
  /// pool-resident FleetEstimator lanes screen through the identical
  /// code path. Returns the payload on acceptance, nullopt on rejection;
  /// counters updated either way.
  std::optional<ScreenedMessage> screen(const comm::Message& msg,
                                        const vehicle::VehicleLimits& limits,
                                        double newest_time,
                                        const std::optional<StateBounds>& fused,
                                        const kalman_core::KalmanView* kalman);

  /// Stateless non-finite screen for estimators without bound/innovation
  /// state (e.g. the naive extrapolator).
  static std::optional<ScreenedMessage> screen_fields(const comm::Message& msg);

  /// True within suspect_hold seconds of the last rejection.
  bool recently_rejected(double t) const {
    return last_rejection_time_ >= 0.0 &&
           t - last_rejection_time_ <= config_.suspect_hold;
  }

  const GateConfig& config() const { return config_; }
  const RejectionCounters& counters() const { return counters_; }

  /// Attach an event sink; every screen decision is emitted as a
  /// message accept/reject event (rejects carry their reason code). Pass
  /// nullptr to detach.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

 private:
  GateConfig config_;
  RejectionCounters counters_;
  double last_rejection_time_ = -1.0;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace cvsafe::filter
