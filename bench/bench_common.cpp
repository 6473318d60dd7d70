#include "bench_common.hpp"

#include <cstdio>
#include <iostream>

#include "cvsafe/util/config.hpp"
#include "cvsafe/util/csv.hpp"
#include "cvsafe/util/table.hpp"

namespace bench {

using namespace cvsafe;

std::size_t sims_per_cell(std::size_t fallback) {
  return util::bench_sims(fallback);
}

std::size_t threads() { return util::bench_threads(); }

void run_planner_table(planners::PlannerStyle style, const std::string& title,
                       std::size_t sims) {
  sim::LeftTurnSimConfig base = sim::LeftTurnSimConfig::paper_defaults();

  util::Table table(title);
  table.set_header({"settings", "planner type", "reaching time", "safe rate",
                    "eta value", "winning %", "emergency freq"});

  const eval::PlannerVariant variants[] = {eval::PlannerVariant::kPureNn,
                                           eval::PlannerVariant::kBasic,
                                           eval::PlannerVariant::kUltimate};
  const eval::CommSetting settings[] = {eval::CommSetting::kNoDisturbance,
                                        eval::CommSetting::kDelayed,
                                        eval::CommSetting::kLost};

  bool first_setting = true;
  for (const auto setting : settings) {
    if (!first_setting) table.add_separator();
    first_setting = false;

    sim::BatchStats stats[3];
    for (int i = 0; i < 3; ++i) {
      const auto bp = eval::make_nn_blueprint(base, style, variants[i]);
      stats[i] = eval::run_setting(base, bp, setting, sims, 1, threads());
    }

    for (int i = 0; i < 3; ++i) {
      const bool is_ultimate = variants[i] == eval::PlannerVariant::kUltimate;
      const bool all_safe = stats[i].safe_count == stats[i].n;
      std::string reach = util::Table::num(stats[i].mean_reach_time) + "s";
      if (!all_safe) reach = "*" + reach;  // only safe cases counted
      table.add_row({
          std::string(eval::comm_setting_name(setting)),
          std::string(eval::planner_variant_name(variants[i])),
          reach,
          util::Table::percent(stats[i].safe_rate()),
          util::Table::num(stats[i].mean_eta),
          is_ultimate ? std::string("-")
                      : util::Table::percent(eval::winning_fraction(
                            stats[2].etas, stats[i].etas,
                            /*tolerance=*/1e-3)),
          variants[i] == eval::PlannerVariant::kPureNn
              ? std::string("-")
              : util::Table::percent(stats[i].emergency_frequency()),
      });
    }
  }
  std::cout << table;
  std::printf(
      "(%zu simulations per cell; '*' = reaching time of safe cases only;\n"
      " winning %% = share of paired episodes where the ultimate compound\n"
      " planner achieves the higher eta, ties within one control step of\n"
      " reaching time counted as wins)\n\n",
      sims);
}

void run_fig5_sweep(
    const std::string& title, const std::string& x_label,
    const std::vector<double>& xs,
    const std::function<sim::LeftTurnSimConfig(double)>& make_config,
    std::size_t sims, const std::string& csv_path) {
  const eval::PlannerVariant variants[] = {eval::PlannerVariant::kPureNn,
                                           eval::PlannerVariant::kBasic,
                                           eval::PlannerVariant::kUltimate};

  util::Table reach_table(title + " — reaching time");
  reach_table.set_header(
      {x_label, "pure NN", "basic", "ultimate"});
  util::Table emerg_table(title + " — emergency frequency");
  emerg_table.set_header({x_label, "basic", "ultimate"});
  util::CsvWriter csv(csv_path);
  csv.header({x_label, "reach_pure", "reach_basic", "reach_ultimate",
              "emerg_basic", "emerg_ultimate"});

  for (double x : xs) {
    const sim::LeftTurnSimConfig cfg = make_config(x);
    sim::BatchStats stats[3];
    for (int i = 0; i < 3; ++i) {
      const auto bp = eval::make_nn_blueprint(
          cfg, planners::PlannerStyle::kConservative, variants[i]);
      stats[i] = eval::run_batch(cfg, bp, sims, 1, threads());
    }
    reach_table.add_row({util::Table::num(x, 2),
                         util::Table::num(stats[0].mean_reach_time) + "s",
                         util::Table::num(stats[1].mean_reach_time) + "s",
                         util::Table::num(stats[2].mean_reach_time) + "s"});
    emerg_table.add_row(
        {util::Table::num(x, 2),
         util::Table::percent(stats[1].emergency_frequency()),
         util::Table::percent(stats[2].emergency_frequency())});
    csv.row({x, stats[0].mean_reach_time, stats[1].mean_reach_time,
             stats[2].mean_reach_time, stats[1].emergency_frequency(),
             stats[2].emergency_frequency()});
  }
  std::cout << reach_table << '\n' << emerg_table;
  std::printf("(%zu simulations per point; series written to %s)\n\n", sims,
              csv_path.c_str());
}

}  // namespace bench
