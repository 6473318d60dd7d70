// Regenerates Figs. 5c/5d: reaching time and emergency frequency as a
// function of the message drop probability p_drop (messages-delayed
// setting, dt_d = 0.25 s), conservative planner family.
//
// Expected shape: mild degradation with increasing drops (the sensor
// fallback bounds the damage); ultimate stays fastest; emergency
// frequency increases with the drop probability.

#include "bench_common.hpp"

int main() {
  const std::size_t sims = bench::sims_per_cell(400);
  const std::vector<double> drops = cvsafe::eval::drop_prob_grid();

  auto base = cvsafe::sim::LeftTurnSimConfig::paper_defaults();
  bench::run_fig5_sweep(
      "Fig. 5c/5d", "p_drop", drops,
      [&base](double p) {
        return cvsafe::eval::apply_setting(
            base, cvsafe::eval::CommSetting::kDelayed, p);
      },
      sims, "fig5_drop.csv");
  return 0;
}
