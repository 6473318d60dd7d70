// Golden-file pin of the structured JSONL event trace.
//
// A scripted left-turn episode pair runs in the fault campaign's
// robustness posture (corruption faults over the delayed channel,
// hardened plausibility gate, armed degradation ladder, expert compound
// planner) with an obs::Recorder mounted. The serialized trace (the
// flight-dump JSONL: one header line per episode, one line per event) is
// pinned byte-for-byte to a committed golden and asserted identical
// across repeated runs and across thread counts — the determinism claim
// the whole tracing design rests on (per-episode buffering + seed-ordered
// serialization).
//
// Regenerate (only when a behavior or schema change is intended) with:
//   CVSAFE_UPDATE_GOLDEN=1 ./obs_trace_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cvsafe/comm/channel.hpp"
#include "cvsafe/core/degradation.hpp"
#include "cvsafe/fault/fault_plan.hpp"
#include "cvsafe/filter/plausibility.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/trace.hpp"

namespace {

using namespace cvsafe;

constexpr std::size_t kEpisodes = 2;
constexpr std::uint64_t kSeed = 2026;

/// The campaign's left-turn cell under the "corruption" fault condition.
sim::LeftTurnAdapter make_adapter() {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.comm = comm::CommConfig::delayed(/*drop_prob=*/0.2, /*delay=*/0.25);
  const auto plan = fault::FaultPlan::preset("corruption");
  EXPECT_TRUE(plan.has_value());
  config.faults = *plan;
  config.gate = filter::GateConfig::hardened();
  config.ladder = core::LadderConfig{};

  sim::AgentBlueprint bp;
  bp.name = "expert-compound";
  bp.scenario = config.make_scenario();
  bp.sensor = config.sensor;
  bp.config = sim::AgentConfig::ultimate_compound();
  bp.config.use_expert_planner = true;
  bp.config.gate = config.gate;
  bp.config.ladder = config.ladder;
  return sim::LeftTurnAdapter(config, bp);
}

std::string trace_text(std::size_t threads) {
  const sim::LeftTurnAdapter adapter = make_adapter();
  std::ostringstream os;
  sim::run_traced_episodes(adapter, kEpisodes, kSeed, threads,
                           sim::SeedPolicy::kDerived, os, "left-turn",
                           "corruption");
  return os.str();
}

TEST(ObsTraceGolden, ByteIdenticalAcrossRunsAndThreadCounts) {
  const std::string first = trace_text(/*threads=*/2);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, trace_text(/*threads=*/2)) << "trace differs across runs";
  EXPECT_EQ(first, trace_text(/*threads=*/1))
      << "trace depends on thread count";
}

TEST(ObsTraceGolden, TracedResultsMatchPlainEngine) {
  // Mounting the recorder must not perturb the closed loop: the traced
  // batch returns the exact outcomes of the untraced one.
  const sim::LeftTurnAdapter adapter = make_adapter();
  const auto plain = sim::run_episodes(adapter, kEpisodes, kSeed,
                                       /*threads=*/1,
                                       sim::SeedPolicy::kDerived);
  std::ostringstream os;
  const auto traced = sim::run_traced_episodes(
      adapter, kEpisodes, kSeed, /*threads=*/1, sim::SeedPolicy::kDerived,
      os, "left-turn", "corruption");
  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].collided, traced[i].collided);
    EXPECT_EQ(plain[i].reached, traced[i].reached);
    EXPECT_EQ(plain[i].steps, traced[i].steps);
    EXPECT_DOUBLE_EQ(plain[i].eta, traced[i].eta);
    EXPECT_EQ(plain[i].messages_rejected, traced[i].messages_rejected);
  }
}

TEST(ObsTraceGolden, ContainsTheInstrumentedEventTypes) {
  const std::string trace = trace_text(/*threads=*/1);
  // One header per episode, one step line per control step and exactly
  // one wrap-up per episode.
  EXPECT_NE(trace.find("{\"flight\":{\"episode\":1,"), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"step\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"eta_sample\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"episode_end\""), std::string::npos);
  // The corruption plan perturbs payloads over a delaying, dropping
  // channel, so fault actions, hardened-gate rejections, Kalman
  // rollbacks and ladder moves must surface.
  EXPECT_NE(trace.find("\"kind\":\"fault\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"message_reject\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"kalman_rollback\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"ladder_transition\""),
            std::string::npos);
  // A truncated trace must never pass as golden input: every episode's
  // header reports no overwritten event.
  std::size_t headers = 0;
  std::istringstream in(trace);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"flight\":", 0) != 0) continue;
    ++headers;
    EXPECT_NE(line.find("\"overwritten\":0}}"), std::string::npos) << line;
  }
  EXPECT_EQ(headers, kEpisodes);
}

TEST(ObsTraceGolden, MatchesCommittedGolden) {
  const std::string path =
      std::string(CVSAFE_GOLDEN_DIR) + "/left_turn_trace.jsonl";
  std::vector<std::string> lines;
  {
    std::istringstream in(trace_text(/*threads=*/2));
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_FALSE(lines.empty());

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
