#pragma once

#include <cstdint>
#include <memory>

#include "cvsafe/scenario/intersection.hpp"
#include "cvsafe/sim/engine.hpp"

/// \file intersection.hpp
/// The two-zone intersection crossing as a sim::Engine adapter: streams
/// of crossing vehicles on both lanes, each observed through its own
/// (possibly disturbed) V2V channel and noisy sensor; the monitor builds
/// per-lane occupancy-window sets from sound per-vehicle estimates.

namespace cvsafe::sim {

/// Configuration of one intersection simulation cell.
struct IntersectionSimConfig : RunConfig {
  IntersectionSimConfig() { horizon = 40.0; }

  scenario::IntersectionGeometry geometry;
  vehicle::VehicleLimits cross_limits{2.0, 14.0, -3.0, 3.0};

  /// Cross-traffic stream shape (per lane).
  std::size_t vehicles_per_lane = 2;
  double headway_min = 20.0;  ///< spacing between stream vehicles [m]
  double headway_max = 45.0;
  double v_init_min = 6.0;
  double v_init_max = 12.0;

  /// Crossing corridor of the perpendicular road in each cross vehicle's
  /// OWN path coordinate (entry / exit of the conflict square).
  double cross_zone_front = 30.0;
  double cross_zone_back = 33.5;
  /// Initial distance of each lane's lead vehicle to its zone entry [m].
  double lead_gap_min = 20.0;
  double lead_gap_max = 50.0;

  std::shared_ptr<const scenario::IntersectionScenario> make_scenario()
      const;
};

/// The intersection scenario plugged into the generic engine. The
/// embedded planner is the reckless shared cruise controller (11 m/s
/// set-point); \p use_compound wraps it in the compound planner.
class IntersectionAdapter final
    : public ScenarioAdapter<scenario::IntersectionWorld> {
 public:
  IntersectionAdapter(IntersectionSimConfig config, bool use_compound);

  std::string_view name() const override { return "intersection"; }
  const RunConfig& run() const override { return config_; }
  std::unique_ptr<Episode<scenario::IntersectionWorld>> make_episode(
      util::Rng& rng, std::size_t total_steps,
      std::uint64_t seed) const override;

  const IntersectionSimConfig& config() const { return config_; }

 private:
  IntersectionSimConfig config_;
  bool use_compound_;
  std::shared_ptr<const scenario::IntersectionScenario> scn_;
};

/// Runs one episode. \p use_compound wraps the reckless cruise planner in
/// the compound planner; without it the baseline simply drives through.
RunResult run_intersection_simulation(const IntersectionSimConfig& config,
                                      bool use_compound, std::uint64_t seed);

/// Batch on the fleet engine (seed-paired under the default policy;
/// byte-identical to run_episodes over the same seeds).
BatchStats run_intersection_batch(const IntersectionSimConfig& config,
                                  bool use_compound, std::size_t n,
                                  std::uint64_t base_seed = 1,
                                  std::size_t threads = 0,
                                  SeedPolicy policy = SeedPolicy::kPaired);

}  // namespace cvsafe::sim
