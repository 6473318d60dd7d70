// Regenerates Figs. 5a/5b: reaching time and emergency frequency as a
// function of the transmission time step dt_m (= dt_s), for the
// conservative planner family under otherwise undisturbed communication.
//
// Expected shape: reaching time grows and emergency frequency grows as
// information arrives less often; the ultimate compound planner stays
// fastest across the sweep.

#include "bench_common.hpp"

int main() {
  const std::size_t sims = bench::sims_per_cell(400);
  std::vector<double> periods;
  for (int j = 1; j <= 10; ++j) periods.push_back(0.1 * j);

  bench::run_fig5_sweep(
      "Fig. 5a/5b", "dt_m = dt_s [s]", periods,
      [](double period) {
        cvsafe::sim::LeftTurnSimConfig cfg =
            cvsafe::sim::LeftTurnSimConfig::paper_defaults();
        cfg.comm = cvsafe::comm::CommConfig::no_disturbance(period);
        cfg.sensor = cvsafe::sensing::SensorConfig::uniform(1.0, period);
        return cfg;
      },
      sims, "fig5_transmission.csv");
  return 0;
}
