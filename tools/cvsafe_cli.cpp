// cvsafe command-line interface.
//
//   cvsafe_cli run      [options]  one episode, optionally with a CSV trace
//   cvsafe_cli batch    [options]  N seed-paired episodes with statistics
//   cvsafe_cli sweep    [options]  disturbance sweep (--kind drop|sensor)
//   cvsafe_cli train    [options]  train + save the NN planners
//   cvsafe_cli certify  [options]  offline safety certificates
//   cvsafe_cli campaign [options]  fault-injection safety-invariant matrix
//   cvsafe_cli attack   [options]  adversarial worst-case fault search
//
// A --config FILE (INI, see include/cvsafe/eval/config_io.hpp) customizes
// geometry, actuation limits, channel and sensor before flag overrides.
//
// Every command rejects a flag it does not read (exit 2, naming it; see
// commands()), and run/batch one the chosen --scenario does not read:
// --trace/--profile/--metrics/--pool/--flight-recorder/--telemetry/--style
// are left-turn only, --cars multi only, --config left-turn or multi.
//
// Common options:
//   --scenario left-turn|lane-change|intersection|multi  (run/batch,
//                            default left-turn)
//   --cars N                 oncoming platoon size (multi) (default 2)
//   --style cons|aggr        embedded NN planner style   (default cons)
//   --variant pure|basic|ultimate                        (default ultimate)
//   --drop P                 message drop probability    (default 0)
//   --delay D                message delay [s]           (default 0)
//   --lost                   drop every message
//   --delta X                sensor uncertainty          (default 1.0)
//   --faults NAME|FILE       fault-injection plan: a FaultPlan preset
//                            (none, delay-jitter, reorder-duplicate,
//                            corruption, blackout, sensor-freeze) or an
//                            INI plan file; arms the hardened
//                            plausibility gate + degradation ladder
//   --seed N                 first seed                  (default 1)
//   --sims N                 batch size / training size scale
//   --threads N              worker threads (0 = hardware)
//   --pool N                 (batch) fleet pool capacity  (default 8192)
//   --trace FILE             (run) per-step trace: structured JSONL event
//                            trace when FILE ends in .jsonl, legacy CSV
//                            otherwise; (campaign) structured JSONL trace
//                            of every episode, cell-major seed-minor
//   --metrics FILE           (run/campaign/certify) metrics registry dump:
//                            CSV when FILE ends in .csv, Prometheus text
//                            otherwise
//   --cert FILE              (certify) write the sound branch-and-bound
//                            proof as a machine-checkable JSON certificate
//                            (revalidate with scripts/check_certificate.py)
//   --profile FILE           (run) Chrome trace-event JSON of the hot-path
//                            profiling spans (open in Perfetto)
//   --out DIR|FILE           (train) output directory; (campaign) CSV path
//   --flight-recorder FILE   (batch / campaign / attack) arm a per-lane
//                            flight recorder ring; triggered episode dumps
//                            (min-eta below threshold, EMERGENCY entry,
//                            unsafe-set entry, rejection burst) append to
//                            FILE as JSONL, byte-identical across thread
//                            counts and pool sizes. attack re-runs each
//                            reported offender with the recorder armed.
//   --telemetry FILE         (batch / campaign) deterministic fleet
//                            telemetry (min-eta histogram, per-reason
//                            rejections, ladder occupancy, episode
//                            residency): CSV when FILE ends in .csv,
//                            Prometheus text otherwise. Wall-clock
//                            per-sweep span accounting goes to
//                            FILE.spans — scheduling-dependent, never
//                            byte-compared.
//
// Campaign options:
//   --preset ci|smoke        campaign matrix preset      (default ci)
//   --sims N                 episodes per cell override
//   --seed N                 campaign base seed override
//
// Attack options (adversarial search, cvsafe::adv):
//   --budget ci|N            "ci" = the fixed CI search budget
//                            (SearchConfig::ci()); a number overrides the
//                            optimizer iteration count (default ci)
//   --scenario NAME          campaign scenario           (default left-turn)
//   --optimizer cma|coord    search strategy             (default cma)
//   --seed N                 search seed (optimizer draw stream)
//   --eval-seed N            episode seed base (paired across candidates)
//   --sims N                 episodes per candidate evaluation
//   --topk N                 offenders to serialize      (default 3)
//   --stealth R              max hardened-gate rejection rate (default 0.25)
//   --metrics FILE           search metrics registry dump (best-eta-per-
//                            iteration gauges, stealth-screen counters)
//   --out DIR                writes DIR/search_trace.csv plus, per offender
//                            rank k, DIR/worst_plan_k.ini (replayable via
//                            `run --faults`) and DIR/offender_k.jsonl
//                            (structured episode traces); without --out the
//                            SearchTrace CSV goes to stdout

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <fstream>

#include "cvsafe/adv/search.hpp"
#include "cvsafe/eval/config_io.hpp"
#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/nn/serialize.hpp"
#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/obs/profile.hpp"
#include "cvsafe/sim/fault_campaign.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/sim/obs_summary.hpp"
#include "cvsafe/sim/trace.hpp"
#include "cvsafe/util/csv.hpp"
#include "cvsafe/util/table.hpp"
#include "cvsafe/planners/training.hpp"
#include "cvsafe/verify/certify.hpp"
#include "cvsafe/verify/sound.hpp"

namespace {

using namespace cvsafe;

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  std::vector<std::string> flags;

  bool has_flag(const std::string& name) const {
    for (const auto& f : flags) {
      if (f == name) return true;
    }
    return false;
  }
  std::string value(const std::string& name, const std::string& dflt) const {
    const auto it = values.find(name);
    return it == values.end() ? dflt : it->second;
  }
  double number(const std::string& name, double dflt) const {
    const auto it = values.find(name);
    return it == values.end() ? dflt : std::strtod(it->second.c_str(),
                                                   nullptr);
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    token = token.substr(2);
    // Value options take the next token; boolean flags stand alone.
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      args.values[token] = argv[++i];
    } else {
      args.flags.push_back(token);
    }
  }
  return args;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

/// Dumps the registry as Prometheus text (or CSV for .csv paths) and
/// prints the summary line. Shared by `run` and `campaign`.
bool dump_metrics(const obs::MetricsRegistry& reg, const std::string& path) {
  const std::string text =
      ends_with(path, ".csv") ? reg.csv() : reg.prometheus_text();
  if (!write_text_file(path, text)) return false;
  std::printf("metrics    %s\n", path.c_str());
  return true;
}

/// Writes the collector's triggered flight dumps as labeled JSONL and
/// prints the summary line. Shared by `batch` and `attack` (`campaign`
/// streams per-cell labeled dumps through sim::CampaignObs instead).
bool write_flight_dumps(const std::string& path,
                        obs::FlightDumpCollector& dumps,
                        const std::string& scenario = "",
                        const std::string& fault = "") {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::size_t n = obs::write_flight_dumps_jsonl(
      out, dumps.take_sorted(), scenario, fault);
  std::printf("flight     %s (%zu dumps)\n", path.c_str(), n);
  return true;
}

/// Dumps the wall-clock sweep-span registry as a sibling artifact of the
/// deterministic telemetry file. Kept separate because span counts and
/// durations depend on work-stealing schedules — CI byte-compares the
/// telemetry file but never this one.
bool dump_spans(const sim::SweepSpanSink& spans,
                const std::string& telemetry_path) {
  obs::MetricsRegistry reg;
  sim::collect_sweep_spans(reg, spans.total());
  return dump_metrics(reg, telemetry_path + ".spans");
}

int usage() {
  std::fprintf(
      stderr,
      "usage: cvsafe_cli run|batch|sweep|train|certify|campaign|attack "
      "[options]\n"
      "see the header of tools/cvsafe_cli.cpp for options\n");
  return 2;
}

/// Applies the shared disturbance flags (--drop/--delay/--lost/--delta)
/// to any scenario's loop configuration.
void apply_disturbance(sim::RunConfig& config, const Args& args) {
  const double drop = args.number("drop", 0.0);
  const double delay = args.number("delay", 0.0);
  if (args.has_flag("lost")) {
    config.comm = comm::CommConfig::messages_lost();
  } else if (drop > 0.0 || delay > 0.0) {
    config.comm = comm::CommConfig::delayed(drop, delay > 0.0 ? delay : 0.25);
  }
  if (args.values.count("delta")) {
    config.sensor =
        sensing::SensorConfig::uniform(args.number("delta", 1.0));
  }
  if (args.values.count("faults")) {
    const std::string spec = args.value("faults", "none");
    if (const auto preset = fault::FaultPlan::preset(spec)) {
      config.faults = *preset;
    } else {
      config.faults = fault::FaultPlan::from_file(spec);
    }
    // A faulted run only makes sense with the robustness posture armed.
    config.gate = filter::GateConfig::hardened();
    config.ladder = core::LadderConfig{};
  }
}

sim::LeftTurnSimConfig build_config(const Args& args) {
  // Order: paper defaults -> optional --config file -> flag overrides.
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  if (args.values.count("config")) {
    config = eval::load_sim_config(args.value("config", ""));
  }
  apply_disturbance(config, args);
  return config;
}

planners::PlannerStyle parse_style(const Args& args) {
  return args.value("style", "cons") == "aggr"
             ? planners::PlannerStyle::kAggressive
             : planners::PlannerStyle::kConservative;
}

eval::PlannerVariant parse_variant(const Args& args) {
  const std::string v = args.value("variant", "ultimate");
  if (v == "pure") return eval::PlannerVariant::kPureNn;
  if (v == "basic") return eval::PlannerVariant::kBasic;
  return eval::PlannerVariant::kUltimate;
}

void print_result(const std::string& planner, const std::string& channel,
                  std::uint64_t seed, const sim::RunResult& r) {
  std::printf("planner    %s\n", planner.c_str());
  std::printf("channel    %s\n", channel.c_str());
  std::printf("seed       %llu\n", static_cast<unsigned long long>(seed));
  std::printf("collided   %s\n", r.collided ? "YES" : "no");
  std::printf("reached    %s\n", r.reached ? "yes" : "no");
  if (r.reached) std::printf("t_r        %.3f s\n", r.reach_time);
  std::printf("eta        %.4f\n", r.eta);
  std::printf("emergency  %zu / %zu steps\n", r.emergency_steps, r.steps);
  std::fputs(sim::run_summary_text(r).c_str(), stdout);
}

int print_stats(const std::string& title, const sim::BatchStats& stats) {
  util::Table table(title);
  table.set_header({"episodes", "safe rate", "reach rate", "reaching time",
                    "mean eta", "emergency freq"});
  table.add_row({std::to_string(stats.n),
                 util::Table::percent(stats.safe_rate()),
                 util::Table::percent(stats.reach_rate()),
                 util::Table::num(stats.mean_reach_time) + "s",
                 util::Table::num(stats.mean_eta),
                 util::Table::percent(stats.emergency_frequency())});
  std::cout << table;
  return stats.safe_count == stats.n ? 0 : 1;
}

/// The non-left-turn scenarios behind --scenario; each maps the shared
/// --variant flag onto its own compound/estimator switches.
int run_other_scenario(const std::string& scenario, const Args& args,
                       bool batch) {
  const std::string variant = args.value("variant", "ultimate");
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 1));
  const auto n = static_cast<std::size_t>(args.number("sims", 500));
  const auto threads = static_cast<std::size_t>(args.number("threads", 0));

  if (scenario == "lane-change") {
    sim::LaneChangeSimConfig config;
    apply_disturbance(config, args);
    sim::LaneChangePlannerConfig planner;
    if (variant == "pure") planner.use_compound = false;
    if (variant == "basic") planner.use_info_filter = false;
    const std::string name = "lane-change cruise (" + variant + ")";
    if (batch) {
      return print_stats(
          "batch: " + name + " under " + config.comm.label(),
          sim::run_lane_change_batch(config, planner, n, seed, threads));
    }
    const auto r = sim::run_lane_change_simulation(config, planner, seed);
    print_result(name, config.comm.label(), seed, r);
    return r.collided ? 1 : 0;
  }

  if (scenario == "intersection") {
    sim::IntersectionSimConfig config;
    apply_disturbance(config, args);
    const bool use_compound = variant != "pure";
    const std::string name =
        std::string("intersection cruise (") +
        (use_compound ? "compound" : "pure") + ")";
    if (batch) {
      return print_stats(
          "batch: " + name + " under " + config.comm.label(),
          sim::run_intersection_batch(config, use_compound, n, seed,
                                      threads));
    }
    const auto r =
        sim::run_intersection_simulation(config, use_compound, seed);
    print_result(name, config.comm.label(), seed, r);
    return r.collided ? 1 : 0;
  }

  if (scenario == "multi") {
    sim::LeftTurnSimConfig config = build_config(args);
    sim::MultiVehicleConfig multi;
    multi.num_oncoming =
        static_cast<std::size_t>(args.number("cars", 2));
    sim::MultiAgentSetup setup;
    setup.scenario = config.make_scenario();  // expert kappa_n
    if (variant == "pure") setup.use_compound = false;
    if (variant == "basic") {
      setup.use_info_filter = false;
      setup.use_aggressive = false;
    }
    const std::string name = "multi-vehicle expert (" + variant + ", " +
                             std::to_string(multi.num_oncoming) + " cars)";
    if (batch) {
      return print_stats(
          "batch: " + name + " under " + config.comm.label(),
          sim::run_multi_batch(config, multi, setup, n, seed, threads));
    }
    const auto r =
        sim::run_multi_left_turn_simulation(config, multi, setup, seed);
    print_result(name, config.comm.label(), seed, r);
    return r.collided ? 1 : 0;
  }

  std::fprintf(stderr,
               "unknown --scenario %s "
               "(left-turn|lane-change|intersection|multi)\n",
               scenario.c_str());
  return 2;
}

int cmd_run(const Args& args) {
  const std::string scenario = args.value("scenario", "left-turn");
  if (scenario != "left-turn") {
    return run_other_scenario(scenario, args, /*batch=*/false);
  }
  const sim::LeftTurnSimConfig config = build_config(args);
  auto bp =
      eval::make_nn_blueprint(config, parse_style(args), parse_variant(args));
  // The robustness posture of --faults (hardened gate, armed ladder)
  // lives on the RunConfig; mirror it into the agent, as the campaign
  // does. Defaults are identical, so this is a no-op without --faults.
  bp.config.gate = config.gate;
  bp.config.ladder = config.ladder;
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 1));

  const bool want_trace = args.values.count("trace") > 0;
  const std::string trace_path = args.value("trace", "trace.csv");
  const bool structured = want_trace && ends_with(trace_path, ".jsonl");
  const bool want_profile = args.values.count("profile") > 0;
  if (want_profile) {
    obs::Profiler::instance().clear();
    obs::Profiler::instance().set_enabled(true);
  }

  sim::SimTrace trace;
  obs::Recorder recorder;
  sim::RunResult r;
  if (structured) {
    recorder.set_enabled(true);
    sim::LeftTurnAdapter adapter(config, bp);
    r = sim::run_traced_episode(adapter, seed, recorder);
  } else {
    r = sim::run_left_turn_simulation(config, bp, seed,
                                       want_trace ? &trace : nullptr);
  }
  if (want_profile) obs::Profiler::instance().set_enabled(false);

  std::printf("planner    %s\n", bp.name.c_str());
  std::printf("channel    %s, sensor delta %.2f\n",
              config.comm.label().c_str(), config.sensor.delta_p);
  std::printf("seed       %llu\n", static_cast<unsigned long long>(seed));
  std::printf("collided   %s\n", r.collided ? "YES" : "no");
  std::printf("reached    %s\n", r.reached ? "yes" : "no");
  if (r.reached) std::printf("t_r        %.3f s\n", r.reach_time);
  std::printf("eta        %.4f\n", r.eta);
  std::printf("emergency  %zu / %zu steps\n", r.emergency_steps, r.steps);
  std::fputs(sim::run_summary_text(r).c_str(), stdout);

  if (structured) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    obs::EpisodeLabel label;
    label.seed = seed;
    label.scenario = "left-turn";
    obs::write_events_jsonl(out, recorder.events(), label,
                            recorder.dropped());
    std::printf("trace      %s (%zu events)\n", trace_path.c_str(),
                recorder.events().size());
  } else if (want_trace) {
    util::CsvWriter csv(trace_path);
    if (!csv.ok()) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    csv.header({"t", "ego_p", "ego_v", "a_cmd", "c1_u", "c1_v", "emergency",
                "tau1_lo", "tau1_hi"});
    for (std::size_t i = 0; i < trace.ego.size(); ++i) {
      csv.row({trace.ego[i].t, trace.ego[i].state.p, trace.ego[i].state.v,
               trace.accel_commands[i], trace.c1[i].state.p,
               trace.c1[i].state.v, trace.emergency_flags[i] ? 1.0 : 0.0,
               trace.tau1_lo[i], trace.tau1_hi[i]});
    }
    std::printf("trace      %s\n", trace_path.c_str());
  }

  if (args.values.count("metrics")) {
    obs::MetricsRegistry reg;
    sim::collect_run_metrics(reg, r);
    if (!dump_metrics(reg, args.value("metrics", "run.prom"))) return 1;
  }
  if (want_profile) {
    const std::string path = args.value("profile", "profile.json");
    if (!write_text_file(path,
                         obs::Profiler::instance().chrome_trace_json())) {
      return 1;
    }
    std::printf("profile    %s (%zu spans)\n", path.c_str(),
                obs::Profiler::instance().spans().size());
  }
  return r.collided ? 1 : 0;
}

int cmd_batch(const Args& args) {
  const std::string scenario = args.value("scenario", "left-turn");
  if (scenario != "left-turn") {
    return run_other_scenario(scenario, args, /*batch=*/true);
  }
  const sim::LeftTurnSimConfig config = build_config(args);
  auto bp =
      eval::make_nn_blueprint(config, parse_style(args), parse_variant(args));
  bp.config.gate = config.gate;
  bp.config.ladder = config.ladder;
  const auto n = static_cast<std::size_t>(args.number("sims", 500));
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 1));
  const auto threads = static_cast<std::size_t>(args.number("threads", 0));
  const auto pool = static_cast<std::size_t>(args.number("pool", 8192));
  const bool want_flight = args.values.count("flight-recorder") > 0;
  const bool want_telemetry = args.values.count("telemetry") > 0;

  // The records stay in episode order so the deterministic telemetry fold
  // can walk them.
  obs::FlightDumpCollector dumps;
  sim::SweepSpanSink spans;
  sim::FleetObsSinks sinks;
  if (want_flight) sinks.dumps = &dumps;
  if (want_telemetry) sinks.spans = &spans;
  sim::FleetConfig fleet;
  fleet.threads = threads;
  fleet.pool_capacity = pool;
  const std::vector<sim::FleetRecord> records =
      sim::run_left_turn_fleet_records(config, bp, n, seed, fleet, sinks);
  if (want_flight &&
      !write_flight_dumps(args.value("flight-recorder", "flight.jsonl"),
                          dumps, "left-turn", config.comm.label())) {
    return 1;
  }
  if (want_telemetry) {
    obs::MetricsRegistry reg;
    sim::collect_fleet_telemetry(reg,
                                 std::span<const sim::FleetRecord>(records));
    const std::string path = args.value("telemetry", "telemetry.prom");
    if (!dump_metrics(reg, path)) return 1;
    if (!dump_spans(spans, path)) return 1;
  }
  return print_stats("batch: " + bp.name + " under " + config.comm.label(),
                     sim::stats_from_records(records));
}

int cmd_train(const Args& args) {
  const sim::LeftTurnSimConfig config = build_config(args);
  const auto scenario = config.make_scenario();
  const std::string out_dir = args.value("out", ".");
  planners::TrainingOptions options;
  if (args.values.count("sims")) {
    options.num_samples = static_cast<std::size_t>(args.number("sims", 0));
  }
  for (const auto style : {planners::PlannerStyle::kConservative,
                           planners::PlannerStyle::kAggressive}) {
    const nn::Mlp net =
        planners::train_planner_network(*scenario, style, options);
    const std::string path = out_dir + "/left_turn_" +
                             planners::planner_style_name(style) + ".mlp";
    if (!nn::save_mlp_file(net, path)) {
      std::fprintf(stderr, "failed to save %s\n", path.c_str());
      return 1;
    }
    std::printf("trained %s planner (%zu samples) -> %s\n",
                planners::planner_style_name(style), options.num_samples,
                path.c_str());
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  // cvsafe_cli sweep --kind drop|sensor --points N --sims M
  const std::string kind = args.value("kind", "drop");
  const auto setting = kind == "sensor" ? eval::CommSetting::kLost
                                        : eval::CommSetting::kDelayed;
  const auto grid = kind == "sensor" ? eval::sensor_delta_grid()
                                     : eval::drop_prob_grid();
  const auto points =
      std::min<std::size_t>(grid.size(),
                            static_cast<std::size_t>(
                                args.number("points", 10)));
  const auto sims = static_cast<std::size_t>(args.number("sims", 200));
  const auto threads = static_cast<std::size_t>(args.number("threads", 0));
  const sim::LeftTurnSimConfig base = build_config(args);
  const auto style = parse_style(args);

  util::Table table("sweep: " + kind + " (" +
                    planners::planner_style_name(style) + " NN, " +
                    std::to_string(sims) + " sims/point)");
  table.set_header({kind == "sensor" ? "delta" : "p_drop", "pure t_r",
                    "ultimate t_r", "ultimate emergency"});
  const std::size_t stride = grid.size() / points;
  for (std::size_t gi = 0; gi < grid.size(); gi += std::max<std::size_t>(
                                                 1, stride)) {
    const sim::LeftTurnSimConfig cfg =
        eval::apply_setting(base, setting, grid[gi]);
    const auto pure = eval::run_batch(
        cfg, eval::make_nn_blueprint(cfg, style,
                                     eval::PlannerVariant::kPureNn),
        sims, 1, threads);
    const auto ult = eval::run_batch(
        cfg, eval::make_nn_blueprint(cfg, style,
                                     eval::PlannerVariant::kUltimate),
        sims, 1, threads);
    table.add_row({util::Table::num(grid[gi], 2),
                   util::Table::num(pure.mean_reach_time) + "s",
                   util::Table::num(ult.mean_reach_time) + "s",
                   util::Table::percent(ult.emergency_frequency())});
  }
  std::cout << table;
  return 0;
}

int cmd_campaign(const Args& args) {
  const std::string preset = args.value("preset", "ci");
  sim::CampaignConfig config;
  if (preset == "ci") {
    config = sim::CampaignConfig::ci();
  } else if (preset == "smoke") {
    config = sim::CampaignConfig::smoke();
  } else {
    std::fprintf(stderr, "unknown --preset %s (ci|smoke)\n", preset.c_str());
    return 2;
  }
  if (args.values.count("sims")) {
    config.episodes_per_cell =
        static_cast<std::size_t>(args.number("sims", 8));
  }
  if (args.values.count("seed")) {
    config.base_seed = static_cast<std::uint64_t>(args.number("seed", 2026));
  }
  config.threads = static_cast<std::size_t>(args.number("threads", 0));

  std::ofstream trace_out;
  const bool want_trace = args.values.count("trace") > 0;
  const std::string trace_path = args.value("trace", "campaign.jsonl");
  if (want_trace) {
    trace_out.open(trace_path, std::ios::binary);
    if (!trace_out.good()) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }

  const bool want_flight = args.values.count("flight-recorder") > 0;
  const bool want_telemetry = args.values.count("telemetry") > 0;
  std::ofstream flight_out;
  const std::string flight_path =
      args.value("flight-recorder", "flight.jsonl");
  if (want_flight) {
    flight_out.open(flight_path, std::ios::binary);
    if (!flight_out.good()) {
      std::fprintf(stderr, "cannot write %s\n", flight_path.c_str());
      return 1;
    }
  }
  obs::MetricsRegistry telemetry;
  sim::SweepSpanSink spans;
  sim::CampaignObs observe;
  if (want_flight) observe.flight_os = &flight_out;
  if (want_telemetry) {
    observe.metrics = &telemetry;
    observe.spans = &spans;
  }

  const sim::CampaignResult result = sim::run_fault_campaign(
      config, want_trace ? &trace_out : nullptr,
      want_flight || want_telemetry ? &observe : nullptr);
  const std::string csv = sim::campaign_csv(result);
  if (want_trace) {
    trace_out.close();
    std::printf("trace      %s\n", trace_path.c_str());
  }
  if (want_flight) {
    flight_out.close();
    std::printf("flight     %s\n", flight_path.c_str());
  }
  if (want_telemetry) {
    const std::string path = args.value("telemetry", "campaign.prom");
    if (!dump_metrics(telemetry, path)) return 1;
    if (!dump_spans(spans, path)) return 1;
  }
  if (args.values.count("metrics")) {
    obs::MetricsRegistry reg;
    sim::collect_campaign_metrics(reg, result);
    if (!dump_metrics(reg, args.value("metrics", "campaign.prom"))) {
      return 1;
    }
  }

  if (args.values.count("out")) {
    const std::string path = args.value("out", "campaign.csv");
    std::ofstream out(path, std::ios::binary);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << csv;
    std::printf("campaign   %s (%zu cells)\n", path.c_str(),
                result.cells.size());
  } else {
    std::fputs(csv.c_str(), stdout);
  }

  util::Table table("fault campaign (" + preset + ", " +
                    std::to_string(config.episodes_per_cell) +
                    " episodes/cell)");
  table.set_header({"fault", "scenario", "collisions", "emergency",
                    "degraded steps", "rejected"});
  for (const auto& cell : result.cells) {
    const std::size_t degraded = cell.ladder_steps[1] +
                                 cell.ladder_steps[2] +
                                 cell.ladder_steps[3];
    table.add_row({cell.fault, cell.scenario,
                   std::to_string(cell.collisions),
                   std::to_string(cell.emergency_steps),
                   std::to_string(degraded),
                   std::to_string(cell.messages_rejected)});
  }
  std::cout << table;

  if (!result.invariant_ok()) {
    std::fprintf(stderr,
                 "SAFETY INVARIANT VIOLATED: %zu unsafe-set entries\n",
                 result.violations());
    return 1;
  }
  std::printf("invariant  eta(kappa_c) >= 0 held on every episode\n");
  return 0;
}

int cmd_attack(const Args& args) {
  adv::SearchConfig config = adv::SearchConfig::ci();
  const std::string budget = args.value("budget", "ci");
  if (budget != "ci") {
    const auto iterations = static_cast<std::size_t>(
        std::strtoul(budget.c_str(), nullptr, 10));
    if (iterations == 0) {
      std::fprintf(stderr, "--budget must be ci or a positive iteration "
                           "count, got %s\n",
                   budget.c_str());
      return 2;
    }
    config.iterations = iterations;
  }
  std::string scenario = args.value("scenario", config.scenario);
  if (scenario == "multi") scenario = "multi-vehicle";
  config.scenario = scenario;
  config.optimizer = args.value("optimizer", config.optimizer);
  if (args.values.count("seed")) {
    config.search_seed = static_cast<std::uint64_t>(args.number("seed", 7));
  }
  if (args.values.count("eval-seed")) {
    config.eval_seed =
        static_cast<std::uint64_t>(args.number("eval-seed", 2026));
  }
  if (args.values.count("sims")) {
    config.episodes_per_eval = static_cast<std::size_t>(args.number("sims", 4));
  }
  if (args.values.count("topk")) {
    config.top_k = static_cast<std::size_t>(args.number("topk", 3));
  }
  if (args.values.count("stealth")) {
    config.stealth_threshold = args.number("stealth", 0.25);
  }
  config.threads = static_cast<std::size_t>(args.number("threads", 0));

  const adv::SearchResult result = adv::run_search(config);
  const std::string csv = adv::search_csv(result);

  if (args.values.count("metrics")) {
    obs::MetricsRegistry reg;
    adv::collect_search_metrics(reg, result);
    if (!dump_metrics(reg, args.value("metrics", "attack.prom"))) return 1;
  }
  if (args.values.count("flight-recorder")) {
    // Re-run every reported offender with the flight recorder armed so
    // the causal event rings of the worst discovered faults land next to
    // the search trace.
    const std::string path = args.value("flight-recorder", "flight.jsonl");
    std::ofstream out(path, std::ios::binary);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::size_t total = 0;
    for (std::size_t rank = 0; rank < result.offenders.size(); ++rank) {
      total += adv::dump_offender_flights(result, rank, out);
    }
    std::printf("flight     %s (%zu dumps over %zu offenders)\n",
                path.c_str(), total, result.offenders.size());
  }

  if (args.values.count("out")) {
    const std::filesystem::path dir = args.value("out", "attack");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", dir.string().c_str(),
                   ec.message().c_str());
      return 1;
    }
    const std::string trace_path = (dir / "search_trace.csv").string();
    if (!write_text_file(trace_path, csv)) return 1;
    std::printf("trace      %s (%zu candidates)\n", trace_path.c_str(),
                result.trace.candidates.size());
    for (std::size_t rank = 0; rank < result.offenders.size(); ++rank) {
      const adv::CandidateRecord& rec =
          result.trace.candidates[result.offenders[rank]];
      const std::string plan_path =
          (dir / ("worst_plan_" + std::to_string(rank) + ".ini")).string();
      rec.plan.to_file(plan_path);
      const std::string jsonl_path =
          (dir / ("offender_" + std::to_string(rank) + ".jsonl")).string();
      std::ofstream jsonl(jsonl_path, std::ios::binary);
      if (!jsonl.good()) {
        std::fprintf(stderr, "cannot write %s\n", jsonl_path.c_str());
        return 1;
      }
      adv::trace_offender(result, rank, jsonl);
      std::printf("offender   #%zu %s + %s\n", rank, plan_path.c_str(),
                  jsonl_path.c_str());
    }
  } else {
    std::fputs(csv.c_str(), stdout);
  }

  util::Table table("adversarial search (" + config.optimizer + ", " +
                    config.scenario + ", " +
                    std::to_string(config.iterations) + " iterations)");
  table.set_header({"rank", "iter", "cand", "min eta", "reject rate",
                    "collisions"});
  for (std::size_t rank = 0; rank < result.offenders.size(); ++rank) {
    const adv::CandidateRecord& rec =
        result.trace.candidates[result.offenders[rank]];
    char min_eta[32], reject[32];
    std::snprintf(min_eta, sizeof min_eta, "%.4f", rec.cell.min_eta);
    std::snprintf(reject, sizeof reject, "%.3f", rec.cell.rejection_rate());
    table.add_row({std::to_string(rank), std::to_string(rec.iteration),
                   std::to_string(rec.index), min_eta, reject,
                   std::to_string(rec.cell.collisions)});
  }
  std::cout << table;

  if (!result.invariant_ok()) {
    std::fprintf(stderr,
                 "SAFETY INVARIANT VIOLATED: %zu unsafe-set entries\n",
                 result.violations());
    return 1;
  }
  const adv::CandidateRecord* worst = result.worst();
  if (worst == nullptr) {
    std::fprintf(stderr,
                 "no admissible candidate: every plan tripped the stealth "
                 "screen\n");
    return 1;
  }
  std::printf("worst      min_eta %.17g (iteration %zu, candidate %zu)\n",
              worst->cell.min_eta, worst->iteration, worst->index);
  std::printf("invariant  eta(kappa_c) >= 0 held on every candidate\n");
  return 0;
}

int cmd_certify(const Args& args) {
  const sim::LeftTurnSimConfig config = build_config(args);
  const auto scenario = config.make_scenario();
  util::Rng rng(static_cast<std::uint64_t>(args.number("seed", 20230417)));

  int failures = 0;
  const auto report = [&failures](const verify::Certificate& cert) {
    std::printf("%-72s %8zu checks  %s\n", cert.property.c_str(),
                cert.checked, cert.holds() ? "CERTIFIED" : "FAILED");
    if (!cert.holds()) ++failures;
  };
  report(verify::certify_emergency_eq4(*scenario));
  report(verify::certify_resolvability_invariance(*scenario, 20000, rng));
  report(verify::certify_window_soundness(*scenario, 200, rng));
  report(verify::certify_filter_monotonicity(
      *scenario, config.sensor, config.comm, 150, rng));

  // Sound (proof-producing) pass: interval branch-and-bound over the
  // slack band and the trained planner network, with a machine-checkable
  // artifact (--cert FILE; revalidate with scripts/check_certificate.py).
  obs::MetricsRegistry metrics;
  verify::SoundBnbOptions sound_options;
  sound_options.threads = static_cast<std::size_t>(args.number("threads", 0));
  sound_options.metrics = &metrics;
  const auto style = args.value("style", "cons") == "aggr"
                         ? planners::PlannerStyle::kAggressive
                         : planners::PlannerStyle::kConservative;
  const auto net = planners::cached_planner_network(*scenario, style);
  const planners::InputEncoding encoding;
  const verify::SoundCertificate sound =
      verify::certify_sound(*scenario, *net, encoding, sound_options);
  std::printf(
      "Eq. 4 sound (band, directed rounding): %zu margin + %zu lemma "
      "leaves%52s\n",
      sound.eq4.margin_leaves, sound.eq4.lemma_leaves,
      sound.eq4.proved ? "CERTIFIED" : "FAILED");
  std::printf(
      "kappa_n output bounds (interval B&B): hull [%.6g, %.6g] over "
      "%zu leaves%17s\n",
      sound.nn.hull.lo, sound.nn.hull.hi, sound.nn.leaves.size(),
      sound.nn.proved ? "CERTIFIED" : "FAILED");
  if (!sound.proved()) ++failures;

  const std::string cert_path = args.value("cert", "");
  if (!cert_path.empty()) {
    const std::string json = verify::certificate_json(
        sound, *scenario, *net, encoding, sound_options);
    if (!write_text_file(cert_path, json)) return 1;
    std::printf("certificate %s (net %s, config %s)\n", cert_path.c_str(),
                sound.net_hash.c_str(), sound.config_hash.c_str());
  }
  const std::string metrics_path = args.value("metrics", "");
  if (!metrics_path.empty() && !dump_metrics(metrics, metrics_path)) return 1;
  return failures == 0 ? 0 : 1;
}

/// One flag a command reads. For run and batch, \p scenarios lists the
/// --scenario values that read it, '|'-separated; null means all.
struct FlagSpec {
  const char* name;
  const char* scenarios = nullptr;
};

struct CommandSpec {
  const char* name;
  int (*run)(const Args&);
  std::vector<FlagSpec> flags;
};

/// Every command with the flags it reads. A flag outside its command's
/// list (or outside the scenarios of its entry) is rejected before the
/// command runs, so no flag is ever silently ignored.
const std::vector<CommandSpec>& commands() {
  // Flags build_config() reads: --config, then apply_disturbance()'s.
  const auto disturbance = [](std::vector<FlagSpec> flags,
                              const char* config_scenarios = nullptr) {
    for (const char* name : {"drop", "delay", "lost", "delta", "faults"}) {
      flags.push_back({name});
    }
    flags.push_back({"config", config_scenarios});
    return flags;
  };
  const char* const lt = "left-turn";  // left-turn-only flags
  static const std::vector<CommandSpec> table = {
      {"run", cmd_run,
       disturbance({{"scenario"}, {"seed"}, {"variant"}, {"style", lt},
                    {"trace", lt}, {"profile", lt}, {"metrics", lt},
                    {"cars", "multi"}},
                   "left-turn|multi")},
      {"batch", cmd_batch,
       disturbance({{"scenario"}, {"seed"}, {"variant"}, {"sims"},
                    {"threads"}, {"style", lt}, {"pool", lt},
                    {"flight-recorder", lt}, {"telemetry", lt},
                    {"cars", "multi"}},
                   "left-turn|multi")},
      {"sweep", cmd_sweep,
       disturbance({{"kind"}, {"points"}, {"sims"}, {"threads"},
                    {"style"}})},
      {"train", cmd_train, disturbance({{"out"}, {"sims"}})},
      {"certify", cmd_certify,
       disturbance({{"seed"}, {"threads"}, {"style"}, {"cert"},
                    {"metrics"}})},
      {"campaign", cmd_campaign,
       {{"preset"}, {"sims"}, {"seed"}, {"threads"}, {"trace"},
        {"flight-recorder"}, {"telemetry"}, {"metrics"}, {"out"}}},
      {"attack", cmd_attack,
       {{"budget"}, {"scenario"}, {"optimizer"}, {"seed"}, {"eval-seed"},
        {"sims"}, {"topk"}, {"stealth"}, {"threads"}, {"metrics"},
        {"flight-recorder"}, {"out"}}},
  };
  return table;
}

/// Exit status 2, with a message naming the flag, for the first flag of
/// \p args that \p command (or its --scenario) does not read; 0 when
/// all are read. An unknown scenario is left to the command to report.
int reject_unread_flags(const CommandSpec& command, const Args& args) {
  const auto listed = [](const std::string& list, const std::string& item) {
    return ("|" + list + "|").find("|" + item + "|") != std::string::npos;
  };
  const std::string scenario = args.value("scenario", "left-turn");
  const bool known =
      listed("left-turn|lane-change|intersection|multi", scenario);
  std::vector<std::string> given = args.flags;
  for (const auto& [name, value] : args.values) given.push_back(name);
  for (const std::string& name : given) {
    const auto spec = std::find_if(
        command.flags.begin(), command.flags.end(),
        [&](const FlagSpec& f) { return name == f.name; });
    if (spec == command.flags.end()) {
      std::fprintf(stderr, "%s: unknown option --%s\n", command.name,
                   name.c_str());
      return 2;
    }
    if (spec->scenarios != nullptr && known &&
        !listed(spec->scenarios, scenario)) {
      std::fprintf(stderr, "--%s requires --scenario %s (got %s)\n",
                   name.c_str(), spec->scenarios, scenario.c_str());
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  for (const CommandSpec& command : commands()) {
    if (args.command != command.name) continue;
    if (const int rc = reject_unread_flags(command, args); rc != 0) {
      return rc;
    }
    try {
      return command.run(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cvsafe_cli: %s\n", e.what());
      return 1;
    }
  }
  return usage();
}
