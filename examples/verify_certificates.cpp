// Offline certification of the safety assumptions for a configuration
// (geometry + actuation limits): Eq. 4 on a dense grid, emergency
// resolvability invariance, window soundness, and the monotonicity of
// the filtered window bounds. Run this after changing any scenario
// parameter — the runtime guarantee is only as good as these properties.

#include <cstdio>

#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/verify/certify.hpp"

namespace {

int report(const cvsafe::verify::Certificate& cert) {
  std::printf("%-72s %8zu checks  %s\n", cert.property.c_str(), cert.checked,
              cert.holds() ? "CERTIFIED" : "FAILED");
  for (const auto& ce : cert.counterexamples) {
    std::printf("    counterexample: t=%.3f p0=%.3f v0=%.3f tau=[%.3f,%.3f] "
                "%s\n",
                ce.t, ce.p0, ce.v0, ce.tau1.lo, ce.tau1.hi,
                ce.detail.c_str());
  }
  return cert.holds() ? 0 : 1;
}

}  // namespace

int main() {
  using namespace cvsafe;
  const auto config = sim::LeftTurnSimConfig::paper_defaults();
  const auto scenario = config.make_scenario();
  util::Rng rng(20230417);

  int failures = 0;
  failures += report(verify::certify_emergency_eq4(*scenario));
  failures += report(
      verify::certify_resolvability_invariance(*scenario, 20000, rng));
  failures += report(verify::certify_window_soundness(*scenario, 300, rng));
  failures += report(verify::certify_filter_monotonicity(
      *scenario, config.sensor, comm::CommConfig::delayed(0.5, 0.25),
      200, rng));
  failures += report(verify::certify_filter_monotonicity(
      *scenario, sensing::SensorConfig::uniform(4.8),
      comm::CommConfig::messages_lost(), 200, rng));

  // The other two scenario instantiations.
  const scenario::LaneChangeScenario lane_change(
      scenario::LaneChangeGeometry{}, vehicle::VehicleLimits{0, 18, -6, 3},
      vehicle::VehicleLimits{3, 15, -3, 2}, config.dt_c);
  failures += report(verify::certify_lane_change_eq4(lane_change, 20000,
                                                     rng));
  const scenario::IntersectionScenario intersection(
      scenario::IntersectionGeometry{}, config.ego_limits, config.dt_c);
  failures += report(
      verify::certify_intersection_invariance(intersection, 20000, rng));

  if (failures == 0) {
    std::printf("\nAll safety assumptions certified for this "
                "configuration.\n");
  } else {
    std::printf("\n%d certificates FAILED — the runtime guarantee does not "
                "hold for this configuration.\n",
                failures);
  }
  return failures == 0 ? 0 : 1;
}
