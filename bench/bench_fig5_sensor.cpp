// Regenerates Figs. 5e/5f: reaching time and emergency frequency as a
// function of the sensor uncertainty delta (messages-lost setting:
// information comes from the noisy onboard sensor only), conservative
// planner family.
//
// Expected shape: reaching time and emergency frequency grow with the
// noise; the information filter keeps the ultimate planner clearly ahead.

#include "bench_common.hpp"

int main() {
  const std::size_t sims = bench::sims_per_cell(400);
  const std::vector<double> deltas = cvsafe::eval::sensor_delta_grid();

  auto base = cvsafe::sim::LeftTurnSimConfig::paper_defaults();
  bench::run_fig5_sweep(
      "Fig. 5e/5f", "sensor delta", deltas,
      [&base](double d) {
        return cvsafe::eval::apply_setting(
            base, cvsafe::eval::CommSetting::kLost, d);
      },
      sims, "fig5_sensor.csv");
  return 0;
}
