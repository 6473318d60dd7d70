// Full case study: one traced unprotected-left-turn episode per planner
// variant on the same workload, with a per-step trace written to CSV.
//
// Usage: left_turn_study [seed] [trace_dir]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/util/csv.hpp"

namespace {

void describe(const cvsafe::sim::RunResult& r,
              const cvsafe::sim::SimTrace& trace, const std::string& name,
              double dt_c) {
  std::size_t emergency = 0;
  for (bool e : trace.emergency_flags) emergency += e ? 1 : 0;
  std::printf("%-24s collided=%-3s reached=%-3s t_r=%-7.3f eta=%-8.4f "
              "emergency=%zu/%zu steps\n",
              name.c_str(), r.collided ? "yes" : "no",
              r.reached ? "yes" : "no", r.reach_time, r.eta, emergency,
              trace.emergency_flags.size());
  for (const auto& sw : trace.switches) {
    const std::string_view reason = sw.to_emergency ? sw.reason : "";
    std::printf("    t=%-6.2f %s%s%.*s\n",
                static_cast<double>(sw.step) * dt_c,
                sw.to_emergency ? "kappa_n -> kappa_e" : "kappa_e -> kappa_n",
                sw.to_emergency ? "  reason: " : "",
                static_cast<int>(reason.size()), reason.data());
  }
}

void write_trace(const cvsafe::sim::SimTrace& trace,
                 const std::string& path) {
  cvsafe::util::CsvWriter csv(path);
  if (!csv.ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  csv.header({"t", "ego_p", "ego_v", "ego_a_cmd", "c1_u", "c1_v",
              "emergency", "tau1_lo", "tau1_hi"});
  for (std::size_t i = 0; i < trace.ego.size(); ++i) {
    csv.row({trace.ego[i].t, trace.ego[i].state.p, trace.ego[i].state.v,
             trace.accel_commands[i], trace.c1[i].state.p,
             trace.c1[i].state.v, trace.emergency_flags[i] ? 1.0 : 0.0,
             trace.tau1_lo[i], trace.tau1_hi[i]});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cvsafe;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const std::string trace_dir = argc > 2 ? argv[2] : ".";

  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.comm = comm::CommConfig::delayed(/*drop_prob=*/0.4, /*delay=*/0.25);

  std::printf("Unprotected left turn, seed %llu, %s\n\n",
              static_cast<unsigned long long>(seed),
              config.comm.label().c_str());

  for (const auto style : {planners::PlannerStyle::kConservative,
                           planners::PlannerStyle::kAggressive}) {
    std::printf("--- %s NN planner ---\n",
                planners::planner_style_name(style));
    for (const auto variant :
         {eval::PlannerVariant::kPureNn, eval::PlannerVariant::kBasic,
          eval::PlannerVariant::kUltimate}) {
      const auto bp = eval::make_nn_blueprint(config, style, variant);
      sim::SimTrace trace;
      const auto r = sim::run_left_turn_simulation(config, bp, seed, &trace);
      describe(r, trace, bp.name, config.dt_c);
      const std::string fname =
          trace_dir + "/trace_" +
          std::string(planners::planner_style_name(style)) + "_" +
          std::to_string(static_cast<int>(variant)) + ".csv";
      write_trace(trace, fname);
    }
    std::printf("\n");
  }
  std::printf("Per-step traces written to %s/trace_*.csv\n",
              trace_dir.c_str());
  return 0;
}
