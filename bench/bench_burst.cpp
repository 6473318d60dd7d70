// Extension experiment: bursty (Gilbert-Elliott) vs i.i.d. message loss
// at the SAME stationary drop rate. Real V2V links lose messages in
// bursts; a long outage starves the estimators of exact information for
// seconds at a time, which is strictly harder than the paper's i.i.d.
// model. The compound planner must stay 100% safe, trading efficiency.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "cvsafe/util/csv.hpp"
#include "cvsafe/util/table.hpp"

using namespace cvsafe;

int main() {
  const std::size_t sims = bench::sims_per_cell(500);
  sim::LeftTurnSimConfig base = sim::LeftTurnSimConfig::paper_defaults();

  util::Table table("Bursty vs i.i.d. message loss (conservative NN, " +
                    std::to_string(sims) + " sims/cell)");
  table.set_header({"channel", "p_drop (stationary)", "planner",
                    "reaching time", "safe rate", "emergency freq"});
  util::CsvWriter csv("burst.csv");
  csv.header({"bursty", "p_drop", "ultimate_reach", "ultimate_emerg",
              "pure_reach"});

  for (double p : {0.2, 0.5, 0.8}) {
    for (const bool bursty : {false, true}) {
      sim::LeftTurnSimConfig cfg = base;
      cfg.comm = bursty
                     ? comm::CommConfig::bursty(p, /*mean_burst_len=*/8.0,
                                                /*delay=*/0.25)
                     : comm::CommConfig::delayed(p, 0.25);
      const auto bp_pure = eval::make_nn_blueprint(
          cfg, planners::PlannerStyle::kConservative,
          eval::PlannerVariant::kPureNn);
      const auto bp_ult = eval::make_nn_blueprint(
          cfg, planners::PlannerStyle::kConservative,
          eval::PlannerVariant::kUltimate);
      const auto pure = eval::run_batch(cfg, bp_pure, sims, 1,
                                        bench::threads());
      const auto ult = eval::run_batch(cfg, bp_ult, sims, 1,
                                       bench::threads());
      const char* kind = bursty ? "bursty (GE)" : "i.i.d.";
      table.add_row({kind, util::Table::num(p, 2), "pure NN",
                     util::Table::num(pure.mean_reach_time) + "s",
                     util::Table::percent(pure.safe_rate()), "-"});
      table.add_row({kind, util::Table::num(p, 2), "ultimate",
                     util::Table::num(ult.mean_reach_time) + "s",
                     util::Table::percent(ult.safe_rate()),
                     util::Table::percent(ult.emergency_frequency())});
      csv.row({bursty ? 1.0 : 0.0, p, ult.mean_reach_time,
               ult.emergency_frequency(), pure.mean_reach_time});
    }
    table.add_separator();
  }
  std::cout << table;
  std::printf("(mean burst length 8 transmissions; series in burst.csv)\n");
  return 0;
}
