// Quickstart: wrap a trained NN planner in the safety-guaranteed compound
// planner and run one unprotected-left-turn episode under message delay.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/sim/left_turn.hpp"

int main() {
  using namespace cvsafe;

  // 1. Scenario configuration (paper Section V defaults: ego starts 30 m
  //    before the conflict zone; oncoming traffic 50.5-60 m away).
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.comm = comm::CommConfig::delayed(/*drop_prob=*/0.3,
                                          /*delay=*/0.25);

  // 2. An aggressive NN planner (trained by imitation; cached on disk) —
  //    unsafe on its own — wrapped in the ultimate compound planner.
  const sim::AgentBlueprint pure = eval::make_nn_blueprint(
      config, planners::PlannerStyle::kAggressive,
      eval::PlannerVariant::kPureNn);
  const sim::AgentBlueprint safe = eval::make_nn_blueprint(
      config, planners::PlannerStyle::kAggressive,
      eval::PlannerVariant::kUltimate);

  // 3. Paired episodes: same seed -> same oncoming vehicle behavior, same
  //    message drops, same sensor noise.
  std::printf("%-28s %-10s %-10s %-8s %-10s\n", "planner", "collided",
              "reached", "t_r", "eta");
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const auto* bp : {&pure, &safe}) {
      const sim::RunResult r =
          sim::run_left_turn_simulation(config, *bp, seed);
      std::printf("%-28s %-10s %-10s %-8.3f %-10.4f\n", bp->name.c_str(),
                  r.collided ? "yes" : "no", r.reached ? "yes" : "no",
                  r.reach_time, r.eta);
    }
  }
  std::printf(
      "\nThe compound planner (\"ultimate\") never collides; the pure NN "
      "planner does.\n");
  return 0;
}
