// Golden-file pin of the trained kappa_n in closed loop.
//
// Every other golden runs the expert kappa or an untrained net; this one
// runs the trained conservative network inside the ultimate compound
// planner, so any change to the bits of kappa_n inference (the fused
// Mlp::forward_into pass, predict_scalar) or to training shows up here.
// Three settings, 64 episodes each through the fleet engine (the batched
// NnPlanner::plan_batch path), then the first 8 episodes again through the
// scalar oracle run_episode (the per-row NnPlanner::plan path):
//   nominal     no disturbance;
//   delayed     delayed(0.2, 0.25);
//   corruption  delayed(0.2, 0.25) plus the corruption fault plan, the
//               hardened gate and the degradation ladder.
// Per episode: eta at full precision (%.17g), steps and emergency steps.
// Because eta and the step counts move only when an output change alters
// the trajectory enough, the network's raw outputs on 64 seeded worlds
// are pinned as well (%.17g), through plan_batch and, for the first 8,
// through plan.
//
// Regenerate (only when a behavior change is intended) with:
//   CVSAFE_UPDATE_GOLDEN=1 ./nn_kappa_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/sim/engine.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/seeding.hpp"
#include "cvsafe/util/rng.hpp"

namespace {

using namespace cvsafe;

constexpr std::size_t kFleetEpisodes = 64;
constexpr std::size_t kOracleEpisodes = 8;
constexpr std::uint64_t kBaseSeed = 2701;
constexpr std::size_t kWorlds = 64;

struct Setting {
  const char* name;
  sim::LeftTurnSimConfig config;
};

std::vector<Setting> settings() {
  const auto base = sim::LeftTurnSimConfig::paper_defaults();
  Setting nominal{"nominal", base};
  nominal.config.comm = comm::CommConfig::no_disturbance();
  Setting delayed{"delayed", base};
  delayed.config.comm = comm::CommConfig::delayed(0.2, 0.25);
  Setting corruption{"corruption", delayed.config};
  corruption.config.faults = *fault::FaultPlan::preset("corruption");
  corruption.config.gate = filter::GateConfig::hardened();
  corruption.config.ladder = core::LadderConfig{};
  return {nominal, delayed, corruption};
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit(std::vector<std::string>& lines, const std::string& key,
          const sim::FleetRecord& r) {
  lines.push_back(key + ".eta," + g17(r.eta));
  lines.push_back(key + ".steps," + std::to_string(r.steps));
  lines.push_back(key + ".emergency_steps," +
                  std::to_string(r.emergency_steps));
}

/// The network's accelerations on seeded worlds spanning the approach.
void emit_outputs(std::vector<std::string>& lines,
                  const std::shared_ptr<const nn::Mlp>& net) {
  util::Rng rng(kBaseSeed);
  std::vector<scenario::LeftTurnWorld> worlds(kWorlds);
  for (auto& w : worlds) {
    w.t = rng.uniform(0.0, 10.0);
    w.ego.p = rng.uniform(-40.0, 5.0);
    w.ego.v = rng.uniform(0.0, 15.0);
    w.tau1_nn = rng.uniform01() < 0.2
                    ? util::Interval::empty_interval()
                    : util::Interval{w.t + rng.uniform(0.0, 5.0),
                                     w.t + rng.uniform(5.0, 12.0)};
  }
  planners::NnPlanner planner(net, planners::InputEncoding{}, "kappa_n");
  std::vector<double> batched(worlds.size());
  planner.plan_batch(worlds, batched);
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    lines.push_back("kappa_n.plan_batch.w" + std::to_string(i) + "," +
                    g17(batched[i]));
  }
  for (std::size_t i = 0; i < kOracleEpisodes; ++i) {
    lines.push_back("kappa_n.plan.w" + std::to_string(i) + "," +
                    g17(planner.plan(worlds[i])));
  }
}

std::vector<std::string> collect_lines() {
  std::vector<std::string> lines;
  for (const Setting& s : settings()) {
    auto blueprint = eval::make_nn_blueprint(
        s.config, planners::PlannerStyle::kConservative,
        eval::PlannerVariant::kUltimate);
    blueprint.config.gate = s.config.gate;
    blueprint.config.ladder = s.config.ladder;
    if (lines.empty()) emit_outputs(lines, blueprint.net);

    sim::FleetConfig fleet;
    fleet.threads = 2;
    const auto records = sim::run_left_turn_fleet_records(
        s.config, blueprint, kFleetEpisodes, kBaseSeed, fleet);
    for (std::size_t i = 0; i < records.size(); ++i) {
      emit(lines, std::string(s.name) + ".fleet.ep" + std::to_string(i),
           records[i]);
    }

    const sim::LeftTurnAdapter adapter(s.config, blueprint);
    for (std::size_t i = 0; i < kOracleEpisodes; ++i) {
      const sim::RunResult result = sim::run_episode(
          adapter, sim::episode_seed(kBaseSeed, i, fleet.policy));
      emit(lines, std::string(s.name) + ".oracle.ep" + std::to_string(i),
           sim::record_from_result(result));
    }
  }
  return lines;
}

TEST(KappaNGolden, TrainedConservativeNetMatchesCommittedGolden) {
  const std::string path =
      std::string(CVSAFE_GOLDEN_DIR) + "/kappa_n_closed_loop.csv";
  const std::vector<std::string> lines = collect_lines();

  if (std::getenv("CVSAFE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "golden regenerated: " << path << " (" << lines.size()
                 << " lines)";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with CVSAFE_UPDATE_GOLDEN=1";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);

  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(lines[i], golden[i]) << "first divergence at line " << i + 1;
  }
}

}  // namespace
