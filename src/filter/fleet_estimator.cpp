#include "cvsafe/filter/fleet_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "cvsafe/obs/profile.hpp"
#include "cvsafe/util/contracts.hpp"

namespace cvsafe::filter {

using util::Interval;
using util::Mat2;
using util::Vec2;

using kalman_core::process_noise;

namespace {

bool same_config(const KalmanConfig& a, const KalmanConfig& b) {
  return a.dt == b.dt && a.delta_p == b.delta_p && a.delta_v == b.delta_v &&
         a.delta_a == b.delta_a && a.sigma_bound == b.sigma_bound &&
         a.history_depth == b.history_depth && a.adaptive == b.adaptive &&
         a.q_scale_max == b.q_scale_max && a.q_scale_grow == b.q_scale_grow &&
         a.q_scale_decay == b.q_scale_decay;
}

}  // namespace

std::size_t FleetEstimator::acquire(const KalmanConfig& config) {
  if (!configured_) {
    CVSAFE_EXPECTS(config.dt > 0.0, "Kalman filter needs dt > 0");
    CVSAFE_EXPECTS(config.delta_p >= 0.0 && config.delta_v >= 0.0 &&
                       config.delta_a >= 0.0,
                   "sensor error bounds must be non-negative");
    CVSAFE_EXPECTS(config.sigma_bound > 0.0,
                   "confidence interval needs sigma_bound > 0");
    config_ = config;
    r_ = Mat2::diagonal(config.delta_p * config.delta_p / 3.0,
                        config.delta_v * config.delta_v / 3.0);
    depth_ = std::max<std::size_t>(config.history_depth, 1);
    configured_ = true;
  } else {
    // One pool runs one blueprint; a second configuration would silently
    // share r_/depth_ with the first and break bit-identity.
    CVSAFE_EXPECTS(same_config(config_, config),
                   "fleet estimator slots must share one KalmanConfig");
  }
  if (free_.empty()) {
    grow(cap_ == 0 ? 64 : cap_ * 2);
  }
  const std::size_t slot = free_.back();
  free_.pop_back();
  reset_slot(slot);
  return slot;
}

void FleetEstimator::release(std::size_t slot) {
  CVSAFE_EXPECTS(slot < cap_, "release of an unknown estimator slot");
  free_.push_back(slot);
}

void FleetEstimator::grow(std::size_t new_cap) {
  CVSAFE_EXPECTS(new_cap > cap_, "fleet estimator can only grow");
  const std::size_t old_cap = cap_;
  // Re-layout the position-major history slab for the wider stride.
  std::vector<HistoryEntry> wider(depth_ * new_cap);
  for (std::size_t pos = 0; pos < depth_; ++pos) {
    for (std::size_t slot = 0; slot < old_cap; ++slot) {
      wider[pos * new_cap + slot] = hist_[pos * old_cap + slot];
    }
  }
  hist_ = std::move(wider);
  const auto widen = [new_cap](auto& v) { v.resize(new_cap); };
  widen(x0_);
  widen(x1_);
  widen(p00_);
  widen(p01_);
  widen(p10_);
  widen(p11_);
  widen(t_);
  widen(last_a_);
  widen(q_scale_);
  widen(applied_msg_time_);
  widen(innov_p_);
  widen(innov_v_);
  widen(last_nis_);
  widen(initialized_);
  widen(nis_);
  widen(hist_head_);
  widen(hist_size_);
  widen(recorder_);
  widen(pr_valid_);
  widen(pr_t_);
  widen(pr_x0_);
  widen(pr_x1_);
  widen(pr_p00_);
  widen(pr_p01_);
  widen(pr_p10_);
  widen(pr_p11_);
  staged_slots_.reserve(new_cap);
  staged_readings_.reserve(new_cap);
  predict_slots_.reserve(new_cap);
  predict_t_.reserve(new_cap);
  free_.reserve(new_cap);
  for (std::size_t slot = new_cap; slot-- > old_cap;) {
    free_.push_back(slot);
  }
  cap_ = new_cap;
}

void FleetEstimator::reset_slot(std::size_t slot) {
  x0_[slot] = 0.0;
  x1_[slot] = 0.0;
  p00_[slot] = 0.0;
  p01_[slot] = 0.0;
  p10_[slot] = 0.0;
  p11_[slot] = 0.0;
  t_[slot] = 0.0;
  last_a_[slot] = 0.0;
  q_scale_[slot] = 1.0;
  applied_msg_time_[slot] = -1.0;
  innov_p_[slot] = 0.0;
  innov_v_[slot] = 0.0;
  last_nis_[slot] = 0.0;
  initialized_[slot] = 0;
  nis_[slot] = NisMonitor{};
  hist_head_[slot] = 0;
  hist_size_[slot] = 0;
  recorder_[slot] = nullptr;
  pr_valid_[slot] = 0;
}

void FleetEstimator::history_push(std::size_t slot,
                                  const HistoryEntry& entry) {
  if (hist_size_[slot] == depth_) {
    hist(slot, hist_head_[slot]) = entry;
    hist_head_[slot] = (hist_head_[slot] + 1) % depth_;
  } else {
    hist(slot, (hist_head_[slot] + hist_size_[slot]) % depth_) = entry;
    ++hist_size_[slot];
  }
}

void FleetEstimator::stage(std::size_t slot,
                           const sensing::SensorReading& reading) {
  CVSAFE_EXPECTS(slot < cap_, "stage on an unknown estimator slot");
  CVSAFE_EXPECTS(initialized_[slot] == 0 || reading.t >= t_[slot],
                 "sensor readings must arrive in time order");
  staged_slots_.push_back(static_cast<std::uint32_t>(slot));
  staged_readings_.push_back(reading);
}

void FleetEstimator::update_batch() {
  CVSAFE_PROFILE_SPAN("fleet_estimator.update_batch");
  for (std::size_t i = 0; i < staged_slots_.size(); ++i) {
    absorb(staged_slots_[i], staged_readings_[i]);
  }
  staged_slots_.clear();
  staged_readings_.clear();
}

void FleetEstimator::absorb(std::size_t slot,
                            const sensing::SensorReading& reading) {
  pr_valid_[slot] = 0;
  if (!initialized_[slot]) {
    // Initialize from the first measurement with measurement covariance
    // (identical to KalmanFilter::update on the virgin filter).
    x0_[slot] = reading.p;
    x1_[slot] = reading.v;
    p00_[slot] = r_.a;
    p01_[slot] = r_.b;
    p10_[slot] = r_.c;
    p11_[slot] = r_.d;
    t_[slot] = reading.t;
    last_a_[slot] = reading.a;
    initialized_[slot] = 1;
    history_push(slot, HistoryEntry{reading, Vec2{reading.p, reading.v}, r_});
    return;
  }
  Vec2 x{x0_[slot], x1_[slot]};
  Mat2 p{p00_[slot], p01_[slot], p10_[slot], p11_[slot]};
  // Predict from the previous measurement time to this one.
  const double dt = reading.t - t_[slot];
  if (dt > 0.0) {
    kalman_core::predict(x, p, dt, last_a_[slot],
                         process_noise(dt, config_.delta_a) * q_scale_[slot]);
  }
  history_push(slot, HistoryEntry{reading, x, p});
  if (config_.history_depth == 0) hist_size_[slot] = 0;
  const Vec2 z{reading.p, reading.v};
  const Vec2 y = z - x;
  last_nis_[slot] = nis_[slot].update(y, p + r_);
  innov_p_[slot] = y.x;
  innov_v_[slot] = y.y;
  if (config_.adaptive) {
    // Same inflate/relax policy as the scalar filter's apply_update.
    if (nis_[slot].diverged()) {
      q_scale_[slot] =
          std::min(q_scale_[slot] * config_.q_scale_grow, config_.q_scale_max);
    } else {
      q_scale_[slot] = 1.0 + (q_scale_[slot] - 1.0) * config_.q_scale_decay;
    }
  }
  kalman_core::joseph_update(x, p, z, r_);
  CVSAFE_ENSURES(p.a >= 0.0 && p.d >= 0.0,
                 "covariance diagonal must stay non-negative");
  x0_[slot] = x.x;
  x1_[slot] = x.y;
  p00_[slot] = p.a;
  p01_[slot] = p.b;
  p10_[slot] = p.c;
  p11_[slot] = p.d;
  t_[slot] = reading.t;
  last_a_[slot] = reading.a;
}

void FleetEstimator::stage_predict(std::size_t slot, double t) {
  CVSAFE_EXPECTS(slot < cap_, "stage_predict on an unknown estimator slot");
  CVSAFE_EXPECTS(initialized_[slot] != 0,
                 "stage_predict before the first measurement");
  predict_slots_.push_back(static_cast<std::uint32_t>(slot));
  predict_t_.push_back(t);
}

void FleetEstimator::predict_batch() {
  CVSAFE_PROFILE_SPAN("fleet_estimator.predict_batch");
  for (std::size_t i = 0; i < predict_slots_.size(); ++i) {
    const std::size_t slot = predict_slots_[i];
    const double t = predict_t_[i];
    const kalman_core::KalmanView v = view(slot);
    const Vec2 x = kalman_core::state_at(v, t);
    const Mat2 p = kalman_core::covariance_at(v, t);
    pr_t_[slot] = t;
    pr_x0_[slot] = x.x;
    pr_x1_[slot] = x.y;
    pr_p00_[slot] = p.a;
    pr_p01_[slot] = p.b;
    pr_p10_[slot] = p.c;
    pr_p11_[slot] = p.d;
    pr_valid_[slot] = 1;
  }
  predict_slots_.clear();
  predict_t_.clear();
}

void FleetEstimator::correct_with_message(std::size_t slot, double t_k,
                                          double p, double v, double a) {
  CVSAFE_EXPECTS(slot < cap_, "rollback on an unknown estimator slot");
  CVSAFE_EXPECTS(std::isfinite(t_k),
                 "message rollback timestamp must be finite");
  if (!initialized_[slot]) {
    // A message before any sensing: adopt it as an exact initialization.
    pr_valid_[slot] = 0;
    x0_[slot] = p;
    x1_[slot] = v;
    p00_[slot] = 1e-9;
    p01_[slot] = 0.0;
    p10_[slot] = 0.0;
    p11_[slot] = 1e-9;
    t_[slot] = t_k;
    last_a_[slot] = a;
    initialized_[slot] = 1;
    applied_msg_time_[slot] = t_k;
    return;
  }
  if (t_k <= applied_msg_time_[slot]) return;  // stale vs applied message
  applied_msg_time_[slot] = t_k;
  pr_valid_[slot] = 0;
  if (t_k >= t_[slot]) {
    // Message newer than all measurements: adopt the exact values and
    // supersede the stored history.
    x0_[slot] = p;
    x1_[slot] = v;
    p00_[slot] = 1e-9;
    p01_[slot] = 0.0;
    p10_[slot] = 0.0;
    p11_[slot] = 1e-9;
    t_[slot] = t_k;
    last_a_[slot] = a;
    hist_head_[slot] = 0;
    hist_size_[slot] = 0;
    nis_[slot].reset();
    if (obs::recording(recorder_[slot])) recorder_[slot]->rollback(t_k, 0);
    return;
  }
  // Rollback: restart from the exact message state at t_k and replay every
  // stored sensor update that happened after t_k.
  std::size_t first = 0;
  while (first < hist_size_[slot] &&
         hist_at(slot, first).reading.t <= t_k + 1e-9) {
    ++first;
  }
  if (obs::recording(recorder_[slot])) {
    recorder_[slot]->rollback(t_k, hist_size_[slot] - first);
  }
  Vec2 x{p, v};
  Mat2 cov = Mat2::diagonal(1e-9, 1e-9);
  double t_cur = t_k;
  double a_cur = a;
  for (std::size_t i = first; i < hist_size_[slot]; ++i) {
    const auto& entry = hist_at(slot, i);
    const double dt = entry.reading.t - t_cur;
    if (dt > 0.0) {
      kalman_core::predict(x, cov, dt, a_cur,
                           process_noise(dt, config_.delta_a));
    }
    kalman_core::joseph_update(x, cov, Vec2{entry.reading.p, entry.reading.v},
                               r_);
    t_cur = entry.reading.t;
    a_cur = entry.reading.a;
  }
  x0_[slot] = x.x;
  x1_[slot] = x.y;
  p00_[slot] = cov.a;
  p01_[slot] = cov.b;
  p10_[slot] = cov.c;
  p11_[slot] = cov.d;
  t_[slot] = t_cur;
  last_a_[slot] = a_cur;
  // Past innovations no longer describe the re-anchored filter.
  nis_[slot].reset();
}

Vec2 FleetEstimator::state_at(std::size_t slot, double t) const {
  CVSAFE_EXPECTS(initialized_[slot] != 0,
                 "state_at before the first measurement");
  if (pr_valid_[slot] != 0 && pr_t_[slot] == t) {
    return Vec2{pr_x0_[slot], pr_x1_[slot]};
  }
  return kalman_core::state_at(view(slot), t);
}

Interval FleetEstimator::position_interval(std::size_t slot, double t) const {
  CVSAFE_EXPECTS(initialized_[slot] != 0,
                 "position_interval before the first measurement");
  double center = 0.0;
  double var = 0.0;
  if (pr_valid_[slot] != 0 && pr_t_[slot] == t) {
    center = pr_x0_[slot];
    var = pr_p00_[slot];
  } else {
    const kalman_core::KalmanView v = view(slot);
    center = kalman_core::state_at(v, t).x;
    var = kalman_core::covariance_at(v, t).a;
  }
  const double sigma = std::sqrt(std::max(0.0, var));
  return Interval::centered(center, config_.sigma_bound * sigma);
}

Interval FleetEstimator::velocity_interval(std::size_t slot, double t) const {
  CVSAFE_EXPECTS(initialized_[slot] != 0,
                 "velocity_interval before the first measurement");
  double center = 0.0;
  double var = 0.0;
  if (pr_valid_[slot] != 0 && pr_t_[slot] == t) {
    center = pr_x1_[slot];
    var = pr_p11_[slot];
  } else {
    const kalman_core::KalmanView v = view(slot);
    center = kalman_core::state_at(v, t).y;
    var = kalman_core::covariance_at(v, t).d;
  }
  const double sigma = std::sqrt(std::max(0.0, var));
  return Interval::centered(center, config_.sigma_bound * sigma);
}

}  // namespace cvsafe::filter
