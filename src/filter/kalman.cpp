#include "cvsafe/filter/kalman.hpp"

#include <algorithm>
#include <cmath>

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::filter {

using util::Interval;
using util::Mat2;
using util::Vec2;

using kalman_core::process_noise;

KalmanFilter::KalmanFilter(KalmanConfig config)
    : config_(config),
      r_(Mat2::diagonal(config.delta_p * config.delta_p / 3.0,
                        config.delta_v * config.delta_v / 3.0)) {
  CVSAFE_EXPECTS(config.dt > 0.0, "Kalman filter needs dt > 0");
  CVSAFE_EXPECTS(config.delta_p >= 0.0 && config.delta_v >= 0.0 &&
                     config.delta_a >= 0.0,
                 "sensor error bounds must be non-negative");
  CVSAFE_EXPECTS(config.sigma_bound > 0.0,
                 "confidence interval needs sigma_bound > 0");
  // One up-front allocation; update() then runs alloc-free forever. The
  // capacity floor of 1 keeps the initializing reading retained even with
  // history_depth == 0 (matching the historical deque, which only trimmed
  // on post-initialization pushes).
  history_.resize(std::max<std::size_t>(config_.history_depth, 1));
}

void KalmanFilter::history_push(const HistoryEntry& entry) {
  if (history_size_ == history_.size()) {
    history_[history_head_] = entry;
    history_head_ = (history_head_ + 1) % history_.size();
  } else {
    history_[(history_head_ + history_size_) % history_.size()] = entry;
    ++history_size_;
  }
}

void KalmanFilter::update(const sensing::SensorReading& reading) {
  CVSAFE_EXPECTS(!initialized_ || reading.t >= t_,
                 "sensor readings must arrive in time order");
  if (!initialized_) {
    // Initialize from the first measurement with measurement covariance.
    x_ = Vec2{reading.p, reading.v};
    p_ = r_;
    t_ = reading.t;
    last_a_ = reading.a;
    initialized_ = true;
    history_push(HistoryEntry{reading, x_, p_});
    return;
  }
  // Predict from the previous measurement time to this one.
  const double dt = reading.t - t_;
  if (dt > 0.0) {
    kalman_core::predict(x_, p_, dt, last_a_,
                         process_noise(dt, config_.delta_a));
  }
  history_push(HistoryEntry{reading, x_, p_});
  if (config_.history_depth == 0) history_size_ = 0;
  apply_update(reading);
  t_ = reading.t;
  last_a_ = reading.a;
}

void KalmanFilter::apply_update(const sensing::SensorReading& reading) {
  const Vec2 z{reading.p, reading.v};
  nis_.update(z - x_, p_ + r_);
  kalman_core::joseph_update(x_, p_, z, r_);
  CVSAFE_ENSURES(p_.a >= 0.0 && p_.d >= 0.0,
                 "covariance diagonal must stay non-negative");
}

void KalmanFilter::correct_with_message(double t_k, double p, double v,
                                        double a) {
  CVSAFE_EXPECTS(std::isfinite(t_k),
                 "message rollback timestamp must be finite");
  if (!initialized_) {
    // A message before any sensing: adopt it as an exact initialization.
    x_ = Vec2{p, v};
    p_ = Mat2::diagonal(1e-9, 1e-9);
    t_ = t_k;
    last_a_ = a;
    initialized_ = true;
    applied_msg_time_ = t_k;
    return;
  }
  if (t_k <= applied_msg_time_) return;  // stale relative to applied message
  applied_msg_time_ = t_k;
  if (t_k >= t_) {
    // Message newer than all measurements: predict forward to t_k, then
    // adopt the exact values.
    x_ = Vec2{p, v};
    p_ = Mat2::diagonal(1e-9, 1e-9);
    t_ = t_k;
    last_a_ = a;
    // Replay nothing; history before t_k is now superseded.
    history_head_ = 0;
    history_size_ = 0;
    nis_.reset();
    if (obs::recording(recorder_)) recorder_->rollback(t_k, 0);
    return;
  }
  // Rollback: restart from the exact message state at t_k and replay every
  // stored sensor update that happened after t_k.
  std::size_t first = 0;
  while (first < history_size_ &&
         history_at(first).reading.t <= t_k + 1e-9) {
    ++first;
  }
  if (obs::recording(recorder_)) {
    recorder_->rollback(t_k, history_size_ - first);
  }
  Vec2 x{p, v};
  Mat2 cov = Mat2::diagonal(1e-9, 1e-9);
  double t_cur = t_k;
  double a_cur = a;
  for (std::size_t i = first; i < history_size_; ++i) {
    const auto& entry = history_at(i);
    const double dt = entry.reading.t - t_cur;
    if (dt > 0.0) {
      kalman_core::predict(x, cov, dt, a_cur,
                           process_noise(dt, config_.delta_a));
    }
    // Re-run the measurement update with the stored reading.
    kalman_core::joseph_update(x, cov, Vec2{entry.reading.p, entry.reading.v},
                               r_);
    t_cur = entry.reading.t;
    a_cur = entry.reading.a;
  }
  x_ = x;
  p_ = cov;
  t_ = t_cur;
  last_a_ = a_cur;
  // The rollback re-anchored the state on exact information; past
  // innovations no longer describe the current filter.
  nis_.reset();
}

Vec2 KalmanFilter::state_at(double t) const {
  CVSAFE_EXPECTS(initialized_, "state_at before the first measurement");
  return kalman_core::state_at(view(), t);
}

Mat2 KalmanFilter::covariance_at(double t) const {
  CVSAFE_EXPECTS(initialized_, "covariance_at before the first measurement");
  return kalman_core::covariance_at(view(), t);
}

Interval KalmanFilter::position_interval(double t) const {
  const Vec2 x = state_at(t);
  const Mat2 p = covariance_at(t);
  const double sigma = std::sqrt(std::max(0.0, p.a));
  return Interval::centered(x.x, config_.sigma_bound * sigma);
}

Interval KalmanFilter::velocity_interval(double t) const {
  const Vec2 x = state_at(t);
  const Mat2 p = covariance_at(t);
  const double sigma = std::sqrt(std::max(0.0, p.d));
  return Interval::centered(x.y, config_.sigma_bound * sigma);
}

}  // namespace cvsafe::filter
