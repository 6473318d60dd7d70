// Multi-vehicle extension: the ego turns left across a PLATOON of
// oncoming vehicles (the paper's general n-vehicle system model). The
// conflict-zone occupancy becomes a union of passing windows; the
// compound planner passes ahead of the platoon, threads the gap the
// monitor deems safe, or yields past the last vehicle.
//
// Usage: multi_vehicle [num_oncoming] [episodes]

#include <cstdio>
#include <cstdlib>

#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/planners/training.hpp"

int main(int argc, char** argv) {
  using namespace cvsafe;
  const std::size_t num_oncoming =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3;
  const std::size_t episodes =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 20;

  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.horizon = 40.0;  // yielding past a platoon takes longer
  config.comm = comm::CommConfig::delayed(0.3, 0.25);

  sim::MultiVehicleConfig multi;
  multi.num_oncoming = num_oncoming;

  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();
  setup.net = planners::cached_planner_network(
      *setup.scenario, planners::PlannerStyle::kAggressive);

  std::printf("Unprotected left turn across %zu oncoming vehicles (%s)\n\n",
              num_oncoming, config.comm.label().c_str());
  std::printf("%-6s %-9s %-8s %-8s %-10s\n", "seed", "collided", "reached",
              "t_r", "emergency");

  std::size_t collisions = 0;
  std::size_t reached = 0;
  for (std::uint64_t seed = 1; seed <= episodes; ++seed) {
    const auto r =
        sim::run_multi_left_turn_simulation(config, multi, setup, seed);
    collisions += r.collided ? 1 : 0;
    reached += r.reached ? 1 : 0;
    std::printf("%-6llu %-9s %-8s %-8.2f %zu/%zu\n",
                static_cast<unsigned long long>(seed),
                r.collided ? "YES" : "no", r.reached ? "yes" : "no",
                r.reach_time, r.emergency_steps, r.steps);
  }
  std::printf("\n%zu/%zu episodes reached the target, %zu collisions\n",
              reached, episodes, collisions);
  return collisions == 0 ? 0 : 1;
}
