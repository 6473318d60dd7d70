// Design-choice ablation (DESIGN.md): the two efficiency techniques of
// Section III — information filter and aggressive unsafe set — toggled
// independently on top of the basic compound planner, under the cleanest
// and the harshest communication settings.
//
// Expected shape: each technique alone improves over basic; combined
// (= ultimate) is best; safety is 100% in every configuration because the
// monitor + emergency planner are always active.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "cvsafe/util/table.hpp"

using namespace cvsafe;

int main() {
  const std::size_t sims = bench::sims_per_cell(1000);
  sim::LeftTurnSimConfig base = sim::LeftTurnSimConfig::paper_defaults();

  struct Variant {
    const char* name;
    bool info_filter;
    bool aggressive;
  };
  const Variant variants[] = {
      {"basic (neither)", false, false},
      {"+ information filter", true, false},
      {"+ aggressive unsafe set", false, true},
      {"ultimate (both)", true, true},
  };

  struct Setting {
    const char* name;
    eval::CommSetting setting;
    double sweep_value;
  };
  const Setting settings[] = {
      {"no disturbance", eval::CommSetting::kNoDisturbance, 0.0},
      {"messages lost (delta=3)", eval::CommSetting::kLost, 3.0},
  };

  util::Table table("Ablation: efficiency techniques of Section III "
                    "(conservative NN, " +
                    std::to_string(sims) + " sims/cell)");
  table.set_header({"setting", "compound variant", "reaching time",
                    "safe rate", "eta value", "emergency freq"});

  bool first = true;
  for (const auto& s : settings) {
    if (!first) table.add_separator();
    first = false;
    const sim::LeftTurnSimConfig cfg =
        eval::apply_setting(base, s.setting, s.sweep_value);
    for (const auto& v : variants) {
      sim::AgentBlueprint bp = eval::make_nn_blueprint(
          cfg, planners::PlannerStyle::kConservative,
          eval::PlannerVariant::kBasic);
      bp.config.use_info_filter = v.info_filter;
      bp.config.use_aggressive = v.aggressive;
      bp.name = v.name;
      const auto stats = eval::run_batch(cfg, bp, sims, 1, bench::threads());
      table.add_row({s.name, v.name,
                     util::Table::num(stats.mean_reach_time) + "s",
                     util::Table::percent(stats.safe_rate()),
                     util::Table::num(stats.mean_eta),
                     util::Table::percent(stats.emergency_frequency())});
    }
  }
  std::cout << table;
  return 0;
}
