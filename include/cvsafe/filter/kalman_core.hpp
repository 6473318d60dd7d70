#pragma once

#include "cvsafe/util/linalg.hpp"

/// \file kalman_core.hpp
/// The shared (position, velocity) Kalman arithmetic, Section III-B.
///
/// The model matrices and the predict / Joseph-form measurement-update
/// cycle of KalmanFilter (kalman.hpp), including its rollback replay.
///
/// KalmanView is the read-only snapshot the filter materializes for
/// consumers that need its prediction at an arbitrary time but must not
/// depend on its storage (the plausibility gate's innovation screen,
/// diagnostics).

namespace cvsafe::filter::kalman_core {

/// State transition F = [1 dt; 0 1].
inline util::Mat2 transition(double dt) {
  return util::Mat2{1.0, dt, 0.0, 1.0};
}

/// Control input map G = [dt^2/2; dt].
inline util::Vec2 control(double dt) { return util::Vec2{0.5 * dt * dt, dt}; }

/// Process noise Q = [dt^4/4 dt^3/2; dt^3/2 dt^2] * delta_a^2 / 3.
inline util::Mat2 process_noise(double dt, double delta_a) {
  const double var_a = delta_a * delta_a / 3.0;
  const double dt2 = dt * dt;
  const double dt3 = dt2 * dt;
  const double dt4 = dt3 * dt;
  return util::Mat2{0.25 * dt4, 0.5 * dt3, 0.5 * dt3, dt2} * var_a;
}

/// Predicts (x, P) forward by dt with control acceleration a.
inline void predict(util::Vec2& x, util::Mat2& p, double dt, double a,
                    const util::Mat2& q) {
  const util::Mat2 f = transition(dt);
  const util::Vec2 g = control(dt);
  x = f * x + g * a;
  p = f * p * f.transpose() + q;
}

/// Measurement update with H = I in Joseph form (keeps P symmetric
/// positive semidefinite): K = P (P + R)^-1, x += K (z - x),
/// P = (I-K) P (I-K)^T + K R K^T.
inline void joseph_update(util::Vec2& x, util::Mat2& p, const util::Vec2& z,
                          const util::Mat2& r) {
  const util::Mat2 k = p * (p + r).inverse();
  x = x + k * (z - x);
  const util::Mat2 ik = util::Mat2::identity() - k;
  p = ik * p * ik.transpose() + k * r * k.transpose();
}

/// Read-only snapshot of a Kalman filter's anchored state. `t` is the time
/// of the last absorbed measurement; `delta_a` the sensor acceleration
/// half-width driving the extrapolation process noise.
struct KalmanView {
  bool initialized = false;
  double t = 0.0;
  double last_a = 0.0;
  double delta_a = 1.0;
  util::Vec2 x{};
  util::Mat2 p{};
};

/// Point estimate of \p view extrapolated to time t (<= t returns the
/// anchored estimate unchanged).
inline util::Vec2 state_at(const KalmanView& view, double t) {
  const double dt = t - view.t;
  if (dt <= 0.0) return view.x;
  return transition(dt) * view.x + control(dt) * view.last_a;
}

/// Covariance of \p view extrapolated to time t.
inline util::Mat2 covariance_at(const KalmanView& view, double t) {
  const double dt = t - view.t;
  if (dt <= 0.0) return view.p;
  const util::Mat2 f = transition(dt);
  return f * view.p * f.transpose() + process_noise(dt, view.delta_a);
}

}  // namespace cvsafe::filter::kalman_core
