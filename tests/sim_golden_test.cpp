// Golden-file pin of the closed-loop simulation streams.
//
// The golden CSV was generated from the legacy per-scenario drivers
// (src/eval/{simulation,lane_change_sim,intersection_sim,
// multi_simulation}.cpp) BEFORE they were ported onto sim::Engine, and is
// committed. Every number a batch or trace can produce — per-episode eta,
// per-step accelerations, emergency flags, NN-facing windows, aggregate
// statistics — is serialized at full precision (%.17g), so the port is
// byte-identical for fixed seeds iff this test passes. The same streams
// feed the fig5_*.csv / multi_vehicle.csv series of the bench binaries.
//
// Regenerate (only when a behavior change is intended) with:
//   CVSAFE_UPDATE_GOLDEN=1 ./sim_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "cvsafe/eval/batch.hpp"
#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/nn/mlp.hpp"

namespace {

using namespace cvsafe;

class GoldenRecorder {
 public:
  void emit(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    lines_.push_back(key + "," + buf);
  }
  void emit(const std::string& key, std::size_t value) {
    lines_.push_back(key + "," + std::to_string(value));
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

void emit_batch(GoldenRecorder& rec, const std::string& key,
                const sim::BatchStats& stats) {
  rec.emit(key + ".n", stats.n);
  rec.emit(key + ".safe_count", stats.safe_count);
  rec.emit(key + ".reached_count", stats.reached_count);
  rec.emit(key + ".total_steps", stats.total_steps);
  rec.emit(key + ".emergency_steps", stats.emergency_steps);
  rec.emit(key + ".mean_eta", stats.mean_eta);
  rec.emit(key + ".mean_reach_time", stats.mean_reach_time);
  for (std::size_t i = 0; i < stats.etas.size(); ++i) {
    rec.emit(key + ".eta" + std::to_string(i), stats.etas[i]);
  }
}

// LaneChange/Intersection/Multi batch stats share the aggregate fields.
template <typename Stats>
void emit_stats(GoldenRecorder& rec, const std::string& key,
                const Stats& stats) {
  rec.emit(key + ".n", stats.n);
  rec.emit(key + ".safe_count", stats.safe_count);
  rec.emit(key + ".reached_count", stats.reached_count);
  rec.emit(key + ".total_steps", stats.total_steps);
  rec.emit(key + ".emergency_steps", stats.emergency_steps);
  rec.emit(key + ".mean_eta", stats.mean_eta);
  rec.emit(key + ".mean_reach_time", stats.mean_reach_time);
}

// Per-episode fields shared by all four result families.
template <typename Result>
void emit_result(GoldenRecorder& rec, const std::string& key,
                 const Result& r) {
  rec.emit(key + ".eta", r.eta);
  rec.emit(key + ".reached", static_cast<std::size_t>(r.reached ? 1 : 0));
  rec.emit(key + ".reach_time", r.reach_time);
  rec.emit(key + ".steps", r.steps);
  rec.emit(key + ".emergency_steps", r.emergency_steps);
}

void record_left_turn(GoldenRecorder& rec) {
  const auto base = sim::LeftTurnSimConfig::paper_defaults();

  struct Variant {
    const char* name;
    sim::AgentConfig config;
  };
  const Variant variants[] = {
      {"pure", sim::AgentConfig::pure_nn()},
      {"basic", sim::AgentConfig::basic_compound()},
      {"ultimate", sim::AgentConfig::ultimate_compound()},
  };
  struct Comm {
    const char* name;
    comm::CommConfig comm;
    double sensor_delta;
  };
  const Comm comms[] = {
      {"clean", comm::CommConfig::no_disturbance(), 1.0},
      {"delayed", comm::CommConfig::delayed(0.3, 0.25), 1.0},
      {"lost", comm::CommConfig::messages_lost(), 2.0},
  };

  for (const auto& v : variants) {
    for (const auto& c : comms) {
      sim::LeftTurnSimConfig cfg = base;
      cfg.comm = c.comm;
      cfg.sensor = sensing::SensorConfig::uniform(c.sensor_delta);
      sim::AgentBlueprint bp;
      bp.name = v.name;
      bp.scenario = cfg.make_scenario();
      bp.sensor = cfg.sensor;
      bp.config = v.config;
      bp.config.use_expert_planner = true;
      const auto stats = eval::run_batch(cfg, bp, 6, /*base_seed=*/101,
                                         /*threads=*/2);
      emit_batch(rec,
                 std::string("left_turn.") + v.name + "." + c.name, stats);
    }
  }

  // Per-step trace of the ultimate expert agent under heavy delay.
  {
    sim::LeftTurnSimConfig cfg = base;
    cfg.comm = comm::CommConfig::delayed(0.5, 0.25);
    sim::AgentBlueprint bp;
    bp.name = "trace";
    bp.scenario = cfg.make_scenario();
    bp.sensor = cfg.sensor;
    bp.config = sim::AgentConfig::ultimate_compound();
    bp.config.use_expert_planner = true;
    for (const std::uint64_t seed : {7u, 11u}) {
      sim::SimTrace trace;
      const auto r =
          sim::run_left_turn_simulation(cfg, bp, seed, &trace);
      const std::string key =
          "left_turn.trace.seed" + std::to_string(seed);
      emit_result(rec, key, r);
      rec.emit(key + ".switches", trace.switches.size());
      for (std::size_t i = 0; i < trace.accel_commands.size(); ++i) {
        const std::string sk = key + ".s" + std::to_string(i);
        rec.emit(sk + ".a0", trace.accel_commands[i]);
        rec.emit(sk + ".ego_p", trace.ego[i].state.p);
        rec.emit(sk + ".c1_p", trace.c1[i].state.p);
        rec.emit(sk + ".em", static_cast<std::size_t>(
                                 trace.emergency_flags[i] ? 1 : 0));
        rec.emit(sk + ".tau_lo", trace.tau1_lo[i]);
        rec.emit(sk + ".tau_hi", trace.tau1_hi[i]);
      }
    }
  }

  // NN planner paths with a deterministic random (untrained) network —
  // exercises NnPlanner / EnsemblePlanner encoding without training cost.
  {
    util::Rng net_rng(42);
    const auto net = std::make_shared<const nn::Mlp>(
        nn::MlpSpec{{4, 16, 16, 1}}, net_rng);
    sim::LeftTurnSimConfig cfg = base;
    cfg.comm = comm::CommConfig::delayed(0.4, 0.25);
    for (const auto& v :
         {std::pair<const char*, sim::AgentConfig>{
              "pure", sim::AgentConfig::pure_nn()},
          {"ultimate", sim::AgentConfig::ultimate_compound()}}) {
      sim::AgentBlueprint bp;
      bp.name = v.first;
      bp.scenario = cfg.make_scenario();
      bp.net = net;
      bp.sensor = cfg.sensor;
      bp.config = v.second;
      const auto stats =
          eval::run_batch(cfg, bp, 4, /*base_seed=*/201, /*threads=*/2);
      emit_batch(rec, std::string("left_turn.nn.") + v.first, stats);
    }

    util::Rng rng2(43);
    const auto net2 = std::make_shared<const nn::Mlp>(
        nn::MlpSpec{{4, 16, 16, 1}}, rng2);
    sim::AgentBlueprint bp;
    bp.name = "ensemble";
    bp.scenario = cfg.make_scenario();
    bp.ensemble = {net, net2};
    bp.sensor = cfg.sensor;
    bp.config = sim::AgentConfig::ultimate_compound();
    bp.config.ensemble_sigma_penalty = 0.5;
    const auto stats =
        eval::run_batch(cfg, bp, 3, /*base_seed=*/211, /*threads=*/2);
    emit_batch(rec, "left_turn.nn.ensemble", stats);
  }
}

void record_lane_change(GoldenRecorder& rec) {
  sim::LaneChangeSimConfig cfg;
  struct Case {
    const char* name;
    sim::LaneChangePlannerConfig planner;
  };
  sim::LaneChangePlannerConfig raw;
  raw.use_compound = false;
  sim::LaneChangePlannerConfig basic;
  basic.use_info_filter = false;
  const Case cases[] = {{"raw", raw},
                        {"basic", basic},
                        {"ultimate", sim::LaneChangePlannerConfig{}}};
  for (const auto& c : cases) {
    const auto stats =
        sim::run_lane_change_batch(cfg, c.planner, 6, /*base_seed=*/301,
                                    /*threads=*/2);
    emit_stats(rec, std::string("lane_change.") + c.name, stats);
  }
  sim::LaneChangeSimConfig noisy = cfg;
  noisy.comm = comm::CommConfig::delayed(0.3, 0.25);
  for (const std::uint64_t seed : {303u, 304u, 305u}) {
    const auto r = sim::run_lane_change_simulation(
        noisy, sim::LaneChangePlannerConfig{}, seed);
    emit_result(rec, "lane_change.ep" + std::to_string(seed), r);
  }
}

void record_intersection(GoldenRecorder& rec) {
  sim::IntersectionSimConfig cfg;
  for (const bool use_compound : {false, true}) {
    const auto stats = sim::run_intersection_batch(
        cfg, use_compound, 4, /*base_seed=*/401, /*threads=*/2);
    emit_stats(rec,
               std::string("intersection.") +
                   (use_compound ? "compound" : "raw"),
               stats);
  }
  sim::IntersectionSimConfig noisy = cfg;
  noisy.comm = comm::CommConfig::delayed(0.4, 0.25);
  for (const std::uint64_t seed : {403u, 404u}) {
    const auto r = sim::run_intersection_simulation(noisy, true, seed);
    emit_result(rec, "intersection.ep" + std::to_string(seed), r);
  }
}

void record_multi(GoldenRecorder& rec) {
  const auto config = sim::LeftTurnSimConfig::paper_defaults();
  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();  // net == nullptr -> expert
  for (const std::size_t n_cars : {2u, 3u}) {
    sim::MultiVehicleConfig multi;
    multi.num_oncoming = n_cars;
    const auto stats = sim::run_multi_batch(config, multi, setup, 4,
                                             /*base_seed=*/501,
                                             /*threads=*/2);
    emit_stats(rec, "multi.n" + std::to_string(n_cars), stats);
  }
  sim::MultiAgentSetup naive = setup;
  naive.use_info_filter = false;
  naive.use_aggressive = false;
  sim::MultiVehicleConfig multi;
  sim::LeftTurnSimConfig noisy = config;
  noisy.comm = comm::CommConfig::delayed(0.3, 0.25);
  for (const std::uint64_t seed : {503u, 504u}) {
    const auto r =
        sim::run_multi_left_turn_simulation(noisy, multi, naive, seed);
    emit_result(rec, "multi.ep" + std::to_string(seed), r);
  }
}

std::vector<std::string> collect_lines() {
  GoldenRecorder rec;
  record_left_turn(rec);
  record_lane_change(rec);
  record_intersection(rec);
  record_multi(rec);
  return rec.lines();
}

TEST(SimGolden, ClosedLoopStreamsMatchCommittedGolden) {
  const std::string path = std::string(CVSAFE_GOLDEN_DIR) +
                           "/closed_loop.csv";
  const std::vector<std::string> lines = collect_lines();

  if (std::getenv("CVSAFE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "golden regenerated: " << path << " (" << lines.size()
                 << " lines)";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with CVSAFE_UPDATE_GOLDEN=1";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);

  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(lines[i], golden[i]) << "first divergence at line " << i + 1;
  }
}

}  // namespace
