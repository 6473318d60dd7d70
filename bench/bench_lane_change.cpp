// Extension experiment: the framework's safety/efficiency story on the
// SECOND scenario instantiation (lane-change / merge, the motivating
// example of Section II-A) — raw reckless planner vs compound planner
// across communication settings. Demonstrates quantitatively that the
// guarantee is scenario-agnostic.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/util/table.hpp"

using namespace cvsafe;

int main() {
  const std::size_t sims = bench::sims_per_cell(1000);
  sim::LaneChangeSimConfig base;

  struct Setting {
    const char* name;
    comm::CommConfig comm;
    double delta;
  };
  const Setting settings[] = {
      {"no disturbance", comm::CommConfig::no_disturbance(), 0.8},
      {"messages delayed", comm::CommConfig::delayed(0.5, 0.25), 0.8},
      {"messages lost", comm::CommConfig::messages_lost(), 2.0},
  };

  util::Table table("Lane change: reckless merge planner vs compound "
                    "planner (" +
                    std::to_string(sims) + " sims/cell)");
  table.set_header({"setting", "planner", "violations", "reaching time",
                    "eta value", "emergency freq"});

  bool first = true;
  for (const auto& s : settings) {
    if (!first) table.add_separator();
    first = false;
    sim::LaneChangeSimConfig cfg = base;
    cfg.comm = s.comm;
    cfg.sensor = sensing::SensorConfig::uniform(s.delta);

    sim::LaneChangePlannerConfig raw;
    raw.use_compound = false;
    sim::LaneChangePlannerConfig compound;
    compound.use_compound = true;

    const auto raw_stats =
        sim::run_lane_change_batch(cfg, raw, sims, 1, bench::threads());
    const auto cmp_stats = sim::run_lane_change_batch(cfg, compound, sims,
                                                       1, bench::threads());
    table.add_row({s.name, "raw cruise",
                   util::Table::percent(1.0 - raw_stats.safe_rate()),
                   util::Table::num(raw_stats.mean_reach_time) + "s",
                   util::Table::num(raw_stats.mean_eta), "-"});
    table.add_row({s.name, "compound",
                   util::Table::percent(1.0 - cmp_stats.safe_rate()),
                   util::Table::num(cmp_stats.mean_reach_time) + "s",
                   util::Table::num(cmp_stats.mean_eta),
                   util::Table::percent(cmp_stats.emergency_frequency())});
  }
  std::cout << table;
  std::printf("(violations = merged with less than the required gap)\n");
  return 0;
}
