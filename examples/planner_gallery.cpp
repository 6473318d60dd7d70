// Fig. 1 gallery: the six planner behaviors the paper's schematic
// contrasts, reproduced as actual trajectories on one shared workload —
//   (a) conservative pure NN        safe but slow,
//   (b) aggressive pure NN          fast but enters the unsafe set,
//   (c) basic compound              (b) + monitor/emergency: safe,
//   (d) basic + information filter  sharper estimates,
//   (e) basic + aggressive set      bolder planning, still safe,
//   (f) ultimate compound           all techniques combined.
// Each run writes a CSV trace for plotting.
//
// Usage: planner_gallery [seed] [out_dir]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/util/csv.hpp"

using namespace cvsafe;

namespace {

void write_trace(const sim::SimTrace& trace, const std::string& path) {
  util::CsvWriter csv(path);
  if (!csv.ok()) return;
  csv.header({"t", "ego_p", "ego_v", "c1_u", "emergency"});
  for (std::size_t i = 0; i < trace.ego.size(); ++i) {
    csv.row({trace.ego[i].t, trace.ego[i].state.p, trace.ego[i].state.v,
             trace.c1[i].state.p, trace.emergency_flags[i] ? 1.0 : 0.0});
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Default seed chosen so the aggressive pure NN actually collides —
  // the contrast Fig. 1 is about.
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 6;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.comm = comm::CommConfig::delayed(0.4, 0.25);

  struct Entry {
    const char* tag;
    const char* description;
    planners::PlannerStyle style;
    sim::AgentConfig agent;
  };
  sim::AgentConfig basic_filter = sim::AgentConfig::basic_compound();
  basic_filter.use_info_filter = true;
  sim::AgentConfig basic_aggr = sim::AgentConfig::basic_compound();
  basic_aggr.use_aggressive = true;

  const Entry entries[] = {
      {"a", "conservative pure NN", planners::PlannerStyle::kConservative,
       sim::AgentConfig::pure_nn()},
      {"b", "aggressive pure NN", planners::PlannerStyle::kAggressive,
       sim::AgentConfig::pure_nn()},
      {"c", "basic compound (aggr NN)", planners::PlannerStyle::kAggressive,
       sim::AgentConfig::basic_compound()},
      {"d", "basic + information filter",
       planners::PlannerStyle::kAggressive, basic_filter},
      {"e", "basic + aggressive unsafe set",
       planners::PlannerStyle::kAggressive, basic_aggr},
      {"f", "ultimate compound", planners::PlannerStyle::kAggressive,
       sim::AgentConfig::ultimate_compound()},
  };

  std::printf("Fig. 1 gallery on one shared workload (seed %llu, %s)\n\n",
              static_cast<unsigned long long>(seed),
              config.comm.label().c_str());
  std::printf("%-4s %-32s %-9s %-8s %-8s %-10s\n", "fig", "planner",
              "collided", "reached", "t_r", "emergency");

  for (const auto& e : entries) {
    sim::AgentBlueprint bp;
    bp.scenario = config.make_scenario();
    bp.net = planners::cached_planner_network(*bp.scenario, e.style);
    bp.sensor = config.sensor;
    bp.config = e.agent;
    bp.name = e.description;

    sim::SimTrace trace;
    const auto r = sim::run_left_turn_simulation(config, bp, seed, &trace);
    std::printf("(%s)  %-32s %-9s %-8s %-8.2f %zu/%zu\n", e.tag,
                e.description, r.collided ? "YES" : "no",
                r.reached ? "yes" : "no", r.reach_time, r.emergency_steps,
                r.steps);
    write_trace(trace,
                out_dir + "/gallery_" + e.tag + ".csv");
  }
  std::printf("\ntraces written to %s/gallery_[a-f].csv\n", out_dir.c_str());
  return 0;
}
