// Third case study: crossing a two-lane perpendicular road (the
// intersection-management problem the paper cites as motivation). The
// ego must clear TWO conflict zones in sequence; the median gap is a
// legal holding position. A reckless cruise planner becomes safe when
// wrapped, and the switch log shows where the monitor held it.
//
// Usage: intersection [episodes]

#include <cstdio>
#include <cstdlib>

#include "cvsafe/sim/intersection.hpp"

int main(int argc, char** argv) {
  using namespace cvsafe;
  const std::size_t episodes =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 15;

  sim::IntersectionSimConfig config;
  config.comm = comm::CommConfig::delayed(0.3, 0.25);

  std::printf("Two-zone intersection crossing (%s)\n\n",
              config.comm.label().c_str());
  std::printf("%-10s %-6s %-9s %-8s %-8s %s\n", "planner", "seed",
              "collided", "reached", "t_r", "emergency");

  std::size_t collisions_raw = 0;
  std::size_t collisions_wrapped = 0;
  for (std::uint64_t seed = 1; seed <= episodes; ++seed) {
    const auto raw = sim::run_intersection_simulation(config, false, seed);
    const auto safe = sim::run_intersection_simulation(config, true, seed);
    collisions_raw += raw.collided;
    collisions_wrapped += safe.collided;
    std::printf("%-10s %-6llu %-9s %-8s %-8.2f -\n", "raw",
                static_cast<unsigned long long>(seed),
                raw.collided ? "YES" : "no", raw.reached ? "yes" : "no",
                raw.reach_time);
    std::printf("%-10s %-6llu %-9s %-8s %-8.2f %zu/%zu\n", "wrapped",
                static_cast<unsigned long long>(seed),
                safe.collided ? "YES" : "no", safe.reached ? "yes" : "no",
                safe.reach_time, safe.emergency_steps, safe.steps);
  }
  std::printf("\ncollisions: raw %zu/%zu, wrapped %zu/%zu\n", collisions_raw,
              episodes, collisions_wrapped, episodes);
  return collisions_wrapped == 0 ? 0 : 1;
}
