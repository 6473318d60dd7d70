// Extension experiment: the two-zone intersection crossing (the paper's
// motivating intersection-management problem) across communication
// settings — raw reckless planner vs compound planner.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/util/table.hpp"

using namespace cvsafe;

int main() {
  const std::size_t sims = bench::sims_per_cell(800);

  struct Setting {
    const char* name;
    comm::CommConfig comm;
    double delta;
  };
  const Setting settings[] = {
      {"no disturbance", comm::CommConfig::no_disturbance(), 1.0},
      {"messages delayed", comm::CommConfig::delayed(0.5, 0.25), 1.0},
      {"messages lost", comm::CommConfig::messages_lost(), 2.5},
  };

  util::Table table("Intersection crossing: raw vs compound (" +
                    std::to_string(sims) + " sims/cell)");
  table.set_header({"setting", "planner", "collisions", "reaching time",
                    "eta value", "emergency freq"});
  bool first = true;
  for (const auto& s : settings) {
    if (!first) table.add_separator();
    first = false;
    sim::IntersectionSimConfig cfg;
    cfg.comm = s.comm;
    cfg.sensor = sensing::SensorConfig::uniform(s.delta);
    const auto raw =
        sim::run_intersection_batch(cfg, false, sims, 1, bench::threads());
    const auto wrapped =
        sim::run_intersection_batch(cfg, true, sims, 1, bench::threads());
    table.add_row({s.name, "raw cruise",
                   util::Table::percent(1.0 - raw.safe_rate()),
                   util::Table::num(raw.mean_reach_time) + "s",
                   util::Table::num(raw.mean_eta), "-"});
    table.add_row({s.name, "compound",
                   util::Table::percent(1.0 - wrapped.safe_rate()),
                   util::Table::num(wrapped.mean_reach_time) + "s",
                   util::Table::num(wrapped.mean_eta),
                   util::Table::percent(wrapped.emergency_frequency())});
  }
  std::cout << table;
  std::printf(
      "(collision = co-presence with cross traffic in either conflict "
      "square)\n");
  return 0;
}
