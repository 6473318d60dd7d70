#pragma once

#include <optional>
#include <vector>

#include "cvsafe/filter/consistency.hpp"
#include "cvsafe/filter/kalman_core.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/util/interval.hpp"
#include "cvsafe/util/linalg.hpp"

/// \file kalman.hpp
/// Kalman filter on (position, velocity), Section III-B of the paper.
///
/// The model matrices are exactly those of the paper:
///
///   F = [1 dt; 0 1],  G = [dt^2/2; dt],
///   Q = [dt^4/4 dt^3/2; dt^3/2 dt^2] * delta_a^2 / 3,
///   R = diag(delta_p^2 / 3, delta_v^2 / 3),
///
/// where delta_* are the uniform sensor-noise half-widths (a uniform
/// distribution on [-d, d] has variance d^2/3).
///
/// Beyond the textbook filter, the paper's *message rollback* extension is
/// implemented: the filter stores its per-period priors and measurements,
/// and when a (delayed) V2V message reporting the exact state at time t_k
/// arrives, the filter resets its estimate at t_k to the exact value and
/// replays all later sensor updates, sharpening the whole recent history.

namespace cvsafe::filter {

/// Filter configuration derived from the sensor model.
struct KalmanConfig {
  double dt = 0.1;       ///< sensing period dt_s [s]
  double delta_p = 1.0;  ///< sensor position noise half-width [m]
  double delta_v = 1.0;  ///< sensor velocity noise half-width [m/s]
  double delta_a = 1.0;  ///< sensor acceleration noise half-width [m/s^2]

  /// Number of standard deviations used for interval output (default 3).
  double sigma_bound = 3.0;

  /// How many past periods are kept for message rollback.
  std::size_t history_depth = 64;
};

/// Two-state Kalman filter with message rollback.
class KalmanFilter {
 public:
  explicit KalmanFilter(KalmanConfig config);

  const KalmanConfig& config() const { return config_; }

  /// True once at least one measurement has been absorbed.
  bool initialized() const { return initialized_; }

  /// Absorbs one sensor reading (must arrive in time order, one per
  /// sensing period). The first reading initializes the filter.
  void update(const sensing::SensorReading& reading);

  /// Message rollback: the exact state (p, v) and acceleration a applied
  /// at time t_k. Resets the estimate at t_k and replays every stored
  /// sensor update after t_k. Messages older than the stored history (or
  /// older than an already-applied message) are ignored.
  void correct_with_message(double t_k, double p, double v, double a);

  /// Point estimate extrapolated to time \p t (>= time of last update),
  /// using the last known acceleration as the control input.
  util::Vec2 state_at(double t) const;

  /// Covariance extrapolated to time \p t.
  util::Mat2 covariance_at(double t) const;

  /// Position interval [p_hat - k sigma_p, p_hat + k sigma_p] at time t.
  util::Interval position_interval(double t) const;

  /// Velocity interval at time t.
  util::Interval velocity_interval(double t) const;

  /// Layout-independent snapshot of the anchored state (see
  /// kalman_core.hpp); what the plausibility gate's innovation screen
  /// consumes.
  kalman_core::KalmanView view() const {
    return kalman_core::KalmanView{initialized_, t_, last_a_,
                                   config_.delta_a, x_, p_};
  }

  /// Time of the last absorbed measurement.
  double last_update_time() const { return t_; }

  /// NIS consistency monitor over the measurement innovations; use
  /// nis().diverged() to detect an overconfident / diverged filter (the
  /// monitor resets whenever a message rollback re-anchors the state).
  const NisMonitor& nis() const { return nis_; }

  /// Attach a trace sink; every message rollback/replay is emitted with
  /// its anchor time and replay extent. Pass nullptr to detach.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

 private:
  struct HistoryEntry {
    sensing::SensorReading reading;  // measurement absorbed at this period
    util::Vec2 prior_x;              // estimate before the update
    util::Mat2 prior_p;              // covariance before the update
  };

  /// Performs the measurement-update + predict cycle in place.
  void apply_update(const sensing::SensorReading& reading);

  /// Appends to the rollback ring, overwriting the oldest entry once the
  /// preallocated capacity is full (same retention as push_back + trim on
  /// the historical deque, but allocation-free in steady state).
  void history_push(const HistoryEntry& entry);

  /// Entry at logical position \p i (0 = oldest retained period).
  const HistoryEntry& history_at(std::size_t i) const {
    return history_[(history_head_ + i) % history_.size()];
  }

  KalmanConfig config_;
  util::Mat2 r_;

  bool initialized_ = false;
  double t_ = 0.0;        ///< time of the last absorbed measurement
  double last_a_ = 0.0;   ///< last control input (measured or from message)
  util::Vec2 x_{};        ///< filtered estimate at t_
  util::Mat2 p_{};        ///< covariance at t_
  double applied_msg_time_ = -1.0;
  /// Rollback history as a preallocated ring buffer: capacity is fixed at
  /// construction (max(history_depth, 1)), so the per-update push never
  /// allocates — a requirement for the zero-alloc steady-state episode
  /// step in the fleet engine.
  std::vector<HistoryEntry> history_;
  std::size_t history_head_ = 0;  ///< index of the oldest retained entry
  std::size_t history_size_ = 0;  ///< number of valid entries
  NisMonitor nis_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace cvsafe::filter
