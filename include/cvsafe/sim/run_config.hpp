#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>

#include "cvsafe/comm/channel.hpp"
#include "cvsafe/core/degradation.hpp"
#include "cvsafe/fault/fault_plan.hpp"
#include "cvsafe/filter/plausibility.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file run_config.hpp
/// The scenario-independent half of a closed-loop simulation
/// configuration. Every scenario config (left turn, lane change,
/// intersection, multi-vehicle) derives from RunConfig and adds its
/// geometry, traffic limits and workload parameters on top; the engine
/// (engine.hpp) only ever reads this base.

namespace cvsafe::sim {

/// Per-step loop parameters shared by every scenario. Defaults are the
/// paper's Section V left-turn setup; derived scenario configs override
/// them in their constructors.
struct RunConfig {
  vehicle::VehicleLimits ego_limits{0.0, 15.0, -6.0, 3.0};
  double dt_c = 0.05;     ///< control period [s]
  double horizon = 25.0;  ///< episode cut-off [s]
  double ego_v0 = 8.0;    ///< ego initial speed [m/s]
  comm::CommConfig comm = comm::CommConfig::no_disturbance();
  sensing::SensorConfig sensor = sensing::SensorConfig::uniform(1.0);

  /// Fault-injection plan (fault/fault_plan.hpp). The default plan is
  /// empty: every channel/sensor decorator is a pure pass-through and the
  /// episode is bit-identical to a build without the fault subsystem.
  fault::FaultPlan faults;

  /// Message plausibility screens for every information filter in the
  /// episode. Permissive default = non-finite rejection only.
  filter::GateConfig gate;

  /// Degradation-ladder thresholds; disarmed (nullopt) by default, in
  /// which case the compound planner behaves exactly as before.
  std::optional<core::LadderConfig> ladder;

  /// Control steps per episode (the engine's loop bound). Refuses a
  /// timing whose step count a std::size_t cannot hold (NaN, infinite
  /// or negative), where the cast would be undefined.
  std::size_t total_steps() const {
    const double steps = std::ceil(horizon / dt_c);
    constexpr auto kLimit =
        static_cast<double>(std::numeric_limits<std::size_t>::max());
    CVSAFE_EXPECTS(steps >= 0.0 && steps < kLimit,
                   "horizon / dt_c must be a representable step count");
    return static_cast<std::size_t>(steps);
  }
};

}  // namespace cvsafe::sim
