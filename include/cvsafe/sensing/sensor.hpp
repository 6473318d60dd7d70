#pragma once

#include <optional>

#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/state.hpp"

/// \file sensor.hpp
/// Onboard sensor model, Section II-A of the paper.
///
/// Every sensing period dt_s the ego vehicle measures the state of another
/// vehicle. The measurement arrives without delay but is inaccurate: each
/// component is uniformly distributed within +-delta of the true value
/// (position delta_p, velocity delta_v, acceleration delta_a).

namespace cvsafe::sensing {

/// Sensor noise / timing configuration.
struct SensorConfig {
  double period = 0.1;   ///< sensing period dt_s [s]
  double delta_p = 1.0;  ///< position uncertainty [m]
  double delta_v = 1.0;  ///< velocity uncertainty [m/s]
  double delta_a = 1.0;  ///< acceleration uncertainty [m/s^2]

  /// Uniform scalar uncertainty: delta_p = delta_v = delta_a = delta,
  /// as swept in the paper's "messages lost" experiments.
  static SensorConfig uniform(double delta, double period = 0.1);

  /// Contract check: period > 0, every delta >= 0, all values finite
  /// (NaN fails every comparison and is rejected).
  void validate() const;
};

/// One noisy measurement of another vehicle's state.
struct SensorReading {
  double t = 0.0;  ///< measurement time (no delay)
  double p = 0.0;  ///< measured position [m]
  double v = 0.0;  ///< measured velocity [m/s]
  double a = 0.0;  ///< measured acceleration [m/s^2]
};

/// Periodic noisy observer of a single vehicle. Construction validates
/// the configuration (SensorConfig::validate()).
class Sensor {
 public:
  explicit Sensor(SensorConfig config) : config_(config) {
    config_.validate();
  }

  const SensorConfig& config() const { return config_; }

  /// Called every control step with the observed vehicle's exact snapshot.
  /// Returns a reading when this step is a sensing instant (every `period`
  /// seconds starting at t = 0), nullopt otherwise. Noise is uniform in
  /// [-delta, +delta] per component.
  std::optional<SensorReading> sense(const vehicle::VehicleSnapshot& truth,
                                     util::Rng& rng);

 private:
  SensorConfig config_;
  double next_sense_time_ = 0.0;
};

}  // namespace cvsafe::sensing
