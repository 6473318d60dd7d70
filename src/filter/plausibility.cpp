#include "cvsafe/filter/plausibility.hpp"

#include <algorithm>
#include <cmath>

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::filter {
namespace {

bool finite_payload(const comm::Message& msg) {
  return std::isfinite(msg.data.t) && std::isfinite(msg.data.state.p) &&
         std::isfinite(msg.data.state.v) && std::isfinite(msg.data.a);
}

ScreenedMessage to_screened(const comm::Message& msg) {
  return ScreenedMessage{msg.data.t, msg.data.state.p, msg.data.state.v,
                         msg.data.a};
}

// Written so NaN (failing every ordered comparison) violates the check.
// ([[maybe_unused]]: contract-free builds compile the checks out.)
void expect_threshold([[maybe_unused]] double x) {
  CVSAFE_EXPECTS(x >= 0.0 && x < 1e9,
                 "gate threshold must be non-negative and finite");
}

}  // namespace

GateConfig GateConfig::permissive() { return GateConfig{}; }

GateConfig GateConfig::hardened() {
  GateConfig g;
  g.check_range = true;
  g.range_margin = 0.5;
  g.max_age = 1.0;
  g.bound_margin = 1.0;
  g.nis_gate = 25.0;
  g.trust_margin_p = 2.5;
  g.trust_margin_v = 2.0;
  g.suspect_hold = 0.5;
  return g;
}

void GateConfig::validate() const {
  expect_threshold(range_margin);
  expect_threshold(max_age);
  expect_threshold(bound_margin);
  expect_threshold(nis_gate);
  expect_threshold(trust_margin_p);
  expect_threshold(trust_margin_v);
  expect_threshold(suspect_hold);
}

std::optional<ScreenedMessage> PlausibilityGate::screen(
    const comm::Message& msg, const vehicle::VehicleLimits& limits,
    double newest_time, const std::optional<StateBounds>& fused,
    const kalman_core::KalmanView* kalman) {
  const auto reject = [&](std::size_t& counter, obs::GateRejectReason reason)
      -> std::optional<ScreenedMessage> {
    ++counter;
    // Suspect-hold anchors on the newest trusted time, never the payload
    // timestamp (which the rejected message may have spoofed).
    last_rejection_time_ = std::max(last_rejection_time_, newest_time);
    if (obs::recording(recorder_)) {
      recorder_->message_reject(msg.sender, reason, msg.stamp());
    }
    return std::nullopt;
  };

  if (!finite_payload(msg)) {
    return reject(counters_.non_finite, obs::GateRejectReason::kNonFinite);
  }

  if (config_.check_range) {
    const double m = config_.range_margin;
    if (msg.data.state.v < limits.v_min - m ||
        msg.data.state.v > limits.v_max + m ||
        msg.data.a < limits.a_min - m || msg.data.a > limits.a_max + m) {
      return reject(counters_.out_of_range,
                    obs::GateRejectReason::kOutOfRange);
    }
  }

  if (config_.max_age > 0.0 && newest_time - msg.stamp() > config_.max_age) {
    return reject(counters_.stale, obs::GateRejectReason::kStale);
  }

  if (config_.bound_margin > 0.0 && fused) {
    // Sound set-membership screen: the fused bounds contain the true
    // state, so an honest payload must overlap them (inflated by the
    // margin) once both are propagated to a common time.
    const double join_t = std::max(msg.stamp(), fused->t);
    const StateBounds have = propagate(*fused, join_t, limits);
    const StateBounds claim = propagate(
        StateBounds::exact(msg.stamp(), msg.data.state.p, msg.data.state.v),
        join_t, limits);
    if (!have.p.inflated(config_.bound_margin).intersects(claim.p) ||
        !have.v.inflated(config_.bound_margin).intersects(claim.v)) {
      return reject(counters_.implausible,
                    obs::GateRejectReason::kImplausible);
    }
  }

  if (config_.nis_gate > 0.0 && kalman != nullptr && kalman->initialized &&
      msg.stamp() >= kalman->t) {
    const util::Vec2 x = kalman_core::state_at(*kalman, msg.stamp());
    util::Mat2 s = kalman_core::covariance_at(*kalman, msg.stamp());
    // Variance floor: keeps a sharply converged filter from rejecting
    // honest payloads over sub-noise-level differences.
    s.a += 1e-2;
    s.d += 1e-2;
    const double det = s.determinant();
    if (det > 1e-12) {
      const util::Vec2 y{msg.data.state.p - x.x, msg.data.state.v - x.y};
      const double nis = (s.d * y.x * y.x - (s.b + s.c) * y.x * y.y +
                          s.a * y.y * y.y) /
                         det;
      if (nis > config_.nis_gate) {
        return reject(counters_.implausible,
                      obs::GateRejectReason::kImplausible);
      }
    }
  }

  ++counters_.accepted;
  if (obs::recording(recorder_)) {
    recorder_->message_accept(msg.sender, msg.stamp());
  }
  return to_screened(msg);
}

std::optional<ScreenedMessage> PlausibilityGate::screen_fields(
    const comm::Message& msg) {
  if (!finite_payload(msg)) return std::nullopt;
  return to_screened(msg);
}

}  // namespace cvsafe::filter
