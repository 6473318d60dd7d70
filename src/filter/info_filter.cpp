#include "cvsafe/filter/info_filter.hpp"

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::filter {

using util::Interval;

InfoFilterOptions InfoFilterOptions::basic() {
  InfoFilterOptions o;
  o.use_kalman = false;
  return o;
}

InfoFilterOptions InfoFilterOptions::ultimate() {
  InfoFilterOptions o;
  o.use_kalman = true;
  return o;
}

InformationFilter::InformationFilter(vehicle::VehicleLimits limits,
                                     sensing::SensorConfig sensor,
                                     InfoFilterOptions options,
                                     GateConfig gate)
    : limits_(limits), sensor_(sensor), options_(options), gate_(gate) {
  if (options_.use_kalman) {
    kalman_.emplace(KalmanConfig{sensor_.period, sensor_.delta_p,
                                 sensor_.delta_v, sensor_.delta_a, 3.0, 64});
  }
}

void InformationFilter::fuse(const StateBounds& incoming) {
  CVSAFE_EXPECTS(!incoming.p.empty() && !incoming.v.empty(),
                 "fused information must describe a non-empty state set");
  if (!fused_) {
    fused_ = incoming;
    return;
  }
  if (incoming.t >= fused_->t) {
    const StateBounds prior = propagate(*fused_, incoming.t, limits_);
    StateBounds joined{incoming.t, prior.p.intersect(incoming.p),
                       prior.v.intersect(incoming.v)};
    if (joined.p.empty() || joined.v.empty()) {
      // Numerically inconsistent (should not happen with sound inputs):
      // trust the fresher information.
      fused_ = incoming;
    } else {
      fused_ = joined;
    }
    return;
  }
  // Stale information (e.g. a heavily delayed message): propagate it to
  // the current fusion time and intersect.
  const StateBounds aged = propagate(incoming, fused_->t, limits_);
  StateBounds joined{fused_->t, fused_->p.intersect(aged.p),
                     fused_->v.intersect(aged.v)};
  if (!joined.p.empty() && !joined.v.empty()) fused_ = joined;
}

void InformationFilter::on_sensor(const sensing::SensorReading& reading) {
  fuse(StateBounds::from_measurement(reading.t, reading.p, reading.v,
                                     sensor_.delta_p, sensor_.delta_v,
                                     limits_));
  last_sense_accel_ = reading.a;
  last_sense_time_ = reading.t;
  if (options_.use_kalman) kalman_->update(reading);
}

void InformationFilter::on_message(const comm::Message& msg) {
  // Every payload field is consumed through the plausibility gate; a
  // rejected message leaves all filter state untouched.
  kalman_core::KalmanView kview;
  const kalman_core::KalmanView* kv = nullptr;
  if (options_.use_kalman) {
    kview = kalman_view();
    kv = &kview;
  }
  const auto screened =
      gate_.screen(msg, limits_, newest_information_time(), fused_, kv);
  if (!screened) return;
  const GateConfig& g = gate_.config();
  if (g.trust_margin_p > 0.0 || g.trust_margin_v > 0.0) {
    // Suspect channel: a payload that survives screening may still be
    // perturbed, so fuse it as a box rather than an exact point to keep
    // the set-membership bounds sound.
    fuse(StateBounds::from_measurement(screened->t, screened->p,
                                       screened->v, g.trust_margin_p,
                                       g.trust_margin_v, limits_));
  } else {
    fuse(StateBounds::exact(screened->t, screened->p, screened->v));
  }
  if (screened->t > last_msg_time_) {
    last_msg_accel_ = screened->a;
    last_msg_time_ = screened->t;
  }
  if (options_.use_kalman) {
    kalman_->correct_with_message(screened->t, screened->p, screened->v,
                                  screened->a);
  }
}

StateEstimate InformationFilter::estimate(double t) const {
  StateEstimate est;
  est.t = t;

  // 1. Sound set-membership bounds (recursive intersection of every past
  //    message and reading, propagated to now).
  Interval p_bound = Interval::everything();
  Interval v_bound{limits_.v_min, limits_.v_max};
  bool have_sound = false;
  if (fused_) {
    const StateBounds reach = propagate(*fused_, t, limits_);
    p_bound = p_bound.intersect(reach.p);
    v_bound = v_bound.intersect(reach.v);
    have_sound = true;
  }
  const bool kalman_ready = options_.use_kalman && kalman_->initialized();
  if (!have_sound && !kalman_ready) {
    est.valid = false;
    return est;
  }

  Interval p_joined = p_bound;
  Interval v_joined = v_bound;

  // 2. Join with the Kalman confidence interval (the paper's information
  //    filter). If the probabilistic interval misses the sound bounds
  //    entirely, the sound bounds win.
  double p_hat;
  double v_hat;
  if (kalman_ready) {
    const Interval pk = kalman_->position_interval(t);
    const Interval vk = kalman_->velocity_interval(t);
    const Interval pj = p_joined.intersect(pk);
    const Interval vj = v_joined.intersect(vk);
    if (!pj.empty()) p_joined = pj;
    if (!vj.empty()) v_joined = vj;
    const util::Vec2 x = kalman_->state_at(t);
    p_hat = p_joined.empty() ? x.x : p_joined.clamp(x.x);
    v_hat = v_joined.empty() ? x.y : v_joined.clamp(x.y);
  } else {
    p_hat = p_joined.mid();
    v_hat = v_joined.mid();
  }

  est.p = p_joined;
  est.v = v_joined;
  est.p_hat = p_hat;
  est.v_hat = v_hat;
  // Acceleration: freshest known value (message content is exact, prefer
  // it on ties).
  est.a_hat = (last_msg_time_ >= last_sense_time_) ? last_msg_accel_
                                                   : last_sense_accel_;
  est.valid = true;
  CVSAFE_ENSURES(!est.p.empty() && !est.v.empty(),
                 "a valid estimate must carry non-empty bounds");
  CVSAFE_ENSURES(est.p.contains(est.p_hat) && est.v.contains(est.v_hat),
                 "point estimate must lie inside its own bounds");
  return est;
}

}  // namespace cvsafe::filter
