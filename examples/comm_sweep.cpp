// Sweeps the message drop probability and reports how the compound
// planner's efficiency and emergency usage respond (the Fig. 5c/5d study
// at example scale), writing the series to CSV.
//
// Usage: comm_sweep [sims_per_point] [csv_path]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/util/csv.hpp"
#include "cvsafe/util/table.hpp"

int main(int argc, char** argv) {
  using namespace cvsafe;
  const std::size_t sims =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 100;
  const std::string csv_path = argc > 2 ? argv[2] : "comm_sweep.csv";

  sim::LeftTurnSimConfig base = sim::LeftTurnSimConfig::paper_defaults();
  const auto bp_pure = eval::make_nn_blueprint(
      base, planners::PlannerStyle::kConservative,
      eval::PlannerVariant::kPureNn);
  const auto bp_ult = eval::make_nn_blueprint(
      base, planners::PlannerStyle::kConservative,
      eval::PlannerVariant::kUltimate);

  util::Table table("Reaching time vs message drop probability (" +
                    std::to_string(sims) + " sims/point)");
  table.set_header({"p_drop", "pure NN t_r", "ultimate t_r",
                    "ultimate emergency"});
  util::CsvWriter csv(csv_path);
  csv.header({"p_drop", "pure_reach_time", "ultimate_reach_time",
              "ultimate_emergency_freq"});

  for (double p_drop : {0.0, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    const sim::LeftTurnSimConfig cfg = eval::apply_setting(
        base, eval::CommSetting::kDelayed, p_drop);
    const auto pure = eval::run_batch(cfg, bp_pure, sims, 1);
    const auto ult = eval::run_batch(cfg, bp_ult, sims, 1);
    table.add_row({util::Table::num(p_drop, 2),
                   util::Table::num(pure.mean_reach_time) + "s",
                   util::Table::num(ult.mean_reach_time) + "s",
                   util::Table::percent(ult.emergency_frequency())});
    csv.row({p_drop, pure.mean_reach_time, ult.mean_reach_time,
             ult.emergency_frequency()});
  }
  std::cout << table;
  std::printf("series written to %s\n", csv_path.c_str());
  return 0;
}
