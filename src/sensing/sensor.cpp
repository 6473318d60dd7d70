#include "cvsafe/sensing/sensor.hpp"

#include <cmath>

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::sensing {
namespace {
constexpr double kTimeEps = 1e-9;
}

SensorConfig SensorConfig::uniform(double delta, double period) {
  return SensorConfig{period, delta, delta, delta};
}

void SensorConfig::validate() const {
  CVSAFE_EXPECTS(std::isfinite(period) && period > 0.0,
                 "sensing period must be positive and finite");
  for (const double delta : {delta_p, delta_v, delta_a}) {
    CVSAFE_EXPECTS(std::isfinite(delta) && delta >= 0.0,
                   "sensor uncertainty must be non-negative and finite");
  }
}

std::optional<SensorReading> Sensor::sense(
    const vehicle::VehicleSnapshot& truth, util::Rng& rng) {
  if (truth.t + kTimeEps < next_sense_time_) return std::nullopt;
  next_sense_time_ += config_.period;
  SensorReading r;
  r.t = truth.t;
  r.p = truth.state.p + rng.uniform(-config_.delta_p, config_.delta_p);
  r.v = truth.state.v + rng.uniform(-config_.delta_v, config_.delta_v);
  r.a = truth.a + rng.uniform(-config_.delta_a, config_.delta_a);
  return r;
}

}  // namespace cvsafe::sensing
