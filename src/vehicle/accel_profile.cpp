#include "cvsafe/vehicle/accel_profile.hpp"

#include <algorithm>

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::vehicle {

/// The smoothed random walk behind a random profile: one step per next().
struct AccelProfile::Walk {
  util::Rng rng;
  VehicleLimits limits;
  AccelProfileParams params;
  double dt;
  double a;
  double v;

  double next() {
    const double innovation = rng.normal(0.0, params.jerk_scale);
    a = params.smoothing * (a - params.bias) + params.bias +
        (1.0 - params.smoothing) * innovation * 4.0;
    a = limits.clamp_accel(a);
    // Clip so the integrated speed stays inside [v_min, v_max].
    const double a_hi = (limits.v_max - v) / dt;
    const double a_lo = (limits.v_min - v) / dt;
    a = std::clamp(a, std::max(limits.a_min, a_lo),
                   std::min(limits.a_max, a_hi));
    v = limits.clamp_speed(v + a * dt);
    return a;
  }
};

AccelProfile::AccelProfile(std::vector<double> accels, std::size_t size,
                           std::unique_ptr<Walk> walk)
    : accels_(std::move(accels)), size_(size), walk_(std::move(walk)) {}

AccelProfile::AccelProfile(AccelProfile&&) noexcept = default;
AccelProfile& AccelProfile::operator=(AccelProfile&&) noexcept = default;
AccelProfile::~AccelProfile() = default;

AccelProfile AccelProfile::random(std::size_t num_steps, double dt, double v0,
                                  const VehicleLimits& limits,
                                  const AccelProfileParams& params,
                                  util::Rng& rng) {
  CVSAFE_EXPECTS(limits.valid(), "vehicle limits must be well-formed");
  // The walk's speed clip needs v in [v_min, v_max]: a start outside it
  // hands std::clamp lo > hi and the profile breaks the limits.
  CVSAFE_EXPECTS(v0 >= limits.v_min && v0 <= limits.v_max,
                 "start speed must lie within the vehicle's speed limits");
  std::vector<double> accels;
  accels.reserve(num_steps);
  Walk walk{rng, limits, params, dt, 0.0, v0};
  const std::size_t eager = std::min(num_steps, kEagerSteps);
  for (std::size_t i = 0; i < eager; ++i) accels.push_back(walk.next());
  // One normal deviate per step: the caller's generator moves on past
  // the steps the tail will draw from its own copy.
  rng = walk.rng;
  rng.skip_normals(num_steps - eager);
  std::unique_ptr<Walk> tail;
  if (eager < num_steps) tail = std::make_unique<Walk>(walk);
  return AccelProfile(std::move(accels), num_steps, std::move(tail));
}

AccelProfile AccelProfile::constant(std::size_t num_steps, double a) {
  return AccelProfile(std::vector<double>(num_steps, a), num_steps, nullptr);
}

double AccelProfile::at_tail(std::size_t i) const {
  if (size_ == 0) return 0.0;
  const std::size_t last = std::min(i, size_ - 1);
  while (accels_.size() <= last) accels_.push_back(walk_->next());
  return accels_[last];
}

const std::vector<double>& AccelProfile::values() const {
  if (size_ > 0) at_tail(size_ - 1);
  return accels_;
}

}  // namespace cvsafe::vehicle
