#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file accel_profile.hpp
/// Workload generation: random acceleration sequences for surrounding
/// vehicles.
///
/// Section V of the paper: "In each simulation, we randomly generate a
/// sequence of accelerations in which the i-th element is the control
/// input of C1 at the i-th timestamp." We generate a bounded, smoothed
/// random walk (vehicles do not flip between full throttle and full brake
/// every 50 ms) clipped to the actuation limits; an additional clamp keeps
/// the resulting velocity inside [v_min, v_max]. Steps are drawn only as
/// far as they are read, with the values and generator state of a draw
/// of the whole sequence.

namespace cvsafe::vehicle {

/// Parameters of the random acceleration workload.
struct AccelProfileParams {
  double smoothing = 0.9;   ///< AR(1) coefficient of the random walk
  double jerk_scale = 1.0;  ///< std-dev of the per-step innovation [m/s^2]
  double bias = 0.0;        ///< mean acceleration [m/s^2]
};

/// Open-loop acceleration sequence for a vehicle. A random profile draws
/// its first kEagerSteps steps when it is built and every later step on
/// its first read, from a private copy of the generator taken where the
/// prefix ends: each value is the one drawing the whole sequence up front
/// would give. Reads may draw, so one profile must not be read from two
/// threads at once (an episode's profiles belong to the thread stepping
/// it).
class AccelProfile {
 public:
  /// Steps random() draws when the profile is built. Fault-campaign
  /// episodes end after 130-211 steps on average and 1-13% of them read
  /// past step 256 (0.2-2.2% of their steps), so the control loop almost
  /// never draws, while building an episode no longer draws the 58-84%
  /// of a 500-800-step horizon it never reads.
  static constexpr std::size_t kEagerSteps = 256;

  /// Generates \p num_steps accelerations for a vehicle with the given
  /// limits, starting from speed \p v0, stepping every \p dt seconds.
  /// The generated sequence respects both acceleration limits and
  /// (via clipping) velocity limits when integrated. \p rng is left
  /// exactly where drawing all \p num_steps would leave it.
  static AccelProfile random(std::size_t num_steps, double dt, double v0,
                             const VehicleLimits& limits,
                             const AccelProfileParams& params,
                             util::Rng& rng);

  /// A constant-acceleration profile (baseline / tests).
  static AccelProfile constant(std::size_t num_steps, double a);

  AccelProfile(AccelProfile&&) noexcept;
  AccelProfile& operator=(AccelProfile&&) noexcept;
  ~AccelProfile();

  /// Acceleration at step \p i; the last value repeats past the end.
  double at(std::size_t i) const {
    if (i < accels_.size()) [[likely]] {
      return accels_[i];
    }
    return at_tail(i);
  }

  std::size_t size() const { return size_; }

  /// Every value (draws the steps not read yet).
  const std::vector<double>& values() const;

 private:
  struct Walk;

  AccelProfile(std::vector<double> accels, std::size_t size,
               std::unique_ptr<Walk> walk);

  /// at() past the steps drawn so far: draws up to step \p i.
  double at_tail(std::size_t i) const;

  /// The steps drawn so far, in storage reserved for all size_ of them:
  /// drawing the tail never allocates.
  mutable std::vector<double> accels_;
  std::size_t size_ = 0;
  /// The generator of the undrawn tail (null when there is none). Only
  /// reads past the prefix touch it, so it lives out of line and keeps
  /// the ~130 bytes of walk and generator state out of the traffic
  /// actor's hot layout.
  std::unique_ptr<Walk> walk_;
};

}  // namespace cvsafe::vehicle
