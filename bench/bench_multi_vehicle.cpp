// Extension experiment: scalability of the framework over the paper's
// general n-vehicle system model — the ego turns left across a platoon of
// 1..6 oncoming vehicles. The conflict-zone occupancy is a union of
// passing windows; safety must stay at 100% while efficiency degrades
// gracefully (longer platoon -> later gap -> later turn).

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/util/csv.hpp"
#include "cvsafe/util/table.hpp"

using namespace cvsafe;

int main() {
  const std::size_t sims = bench::sims_per_cell(300);

  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.horizon = 60.0;
  config.comm = comm::CommConfig::delayed(0.3, 0.25);

  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();
  setup.net = planners::cached_planner_network(
      *setup.scenario, planners::PlannerStyle::kAggressive);

  util::Table table("Multi-vehicle scalability (aggressive NN, ultimate "
                    "compound, " +
                    std::to_string(sims) + " sims/point)");
  table.set_header({"oncoming vehicles", "safe rate", "reach rate",
                    "reaching time", "eta value", "emergency freq"});
  util::CsvWriter csv("multi_vehicle.csv");
  csv.header({"n", "safe_rate", "reach_rate", "reach_time", "eta",
              "emergency_freq"});

  for (std::size_t n = 1; n <= 6; ++n) {
    sim::MultiVehicleConfig multi;
    multi.num_oncoming = n;
    const auto stats = sim::run_multi_batch(config, multi, setup, sims, 1,
                                             bench::threads());
    table.add_row({std::to_string(n),
                   util::Table::percent(stats.safe_rate()),
                   util::Table::percent(stats.reach_rate()),
                   util::Table::num(stats.mean_reach_time) + "s",
                   util::Table::num(stats.mean_eta),
                   util::Table::percent(stats.emergency_frequency())});
    csv.row({static_cast<double>(n), stats.safe_rate(), stats.reach_rate(),
             stats.mean_reach_time, stats.mean_eta,
             stats.emergency_frequency()});
  }
  std::cout << table;
  std::printf("(series written to multi_vehicle.csv)\n");
  return 0;
}
