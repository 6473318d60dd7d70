// Adapter conformance: properties EVERY ScenarioAdapter must satisfy to
// plug into sim::Engine, expressed as a typed test suite. Adding a new
// scenario means adding one AdapterFixture specialization and listing it
// in AdapterTypes — the engine-level invariants (determinism, step
// bounds, outcome/eta consistency, batch aggregation) then come for free.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cvsafe/fault/fault_plan.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/sim/trace.hpp"

namespace {

using namespace cvsafe;

// --- one fixture per adapter ------------------------------------------------

// The disturbance every fixture runs under; \p hardened adds corruption
// faults, the hardened plausibility gate and the armed degradation ladder.
void disturb(sim::RunConfig& cfg, bool hardened) {
  cfg.comm = comm::CommConfig::delayed(0.3, 0.25);
  if (!hardened) return;
  cfg.faults = fault::FaultPlan::corruption();
  cfg.gate = filter::GateConfig::hardened();
  cfg.ladder = core::LadderConfig{};
}

struct LeftTurnFixture {
  using Adapter = sim::LeftTurnAdapter;
  static Adapter make(bool hardened = false) {
    sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
    disturb(cfg, hardened);
    sim::AgentBlueprint bp;
    bp.name = "expert";
    bp.scenario = cfg.make_scenario();
    bp.sensor = cfg.sensor;
    bp.config = sim::AgentConfig::ultimate_compound();
    bp.config.use_expert_planner = true;
    // The left turn's stack takes its gate and ladder from the blueprint.
    bp.config.gate = cfg.gate;
    bp.config.ladder = cfg.ladder;
    return Adapter(cfg, bp);
  }
};

struct LaneChangeFixture {
  using Adapter = sim::LaneChangeAdapter;
  static Adapter make(bool hardened = false) {
    sim::LaneChangeSimConfig cfg;
    disturb(cfg, hardened);
    return Adapter(cfg, sim::LaneChangePlannerConfig{});
  }
};

struct IntersectionFixture {
  using Adapter = sim::IntersectionAdapter;
  static Adapter make(bool hardened = false) {
    sim::IntersectionSimConfig cfg;
    disturb(cfg, hardened);
    return Adapter(cfg, /*use_compound=*/true);
  }
};

struct MultiVehicleFixture {
  using Adapter = sim::MultiVehicleAdapter;
  static Adapter make(bool hardened = false) {
    sim::LeftTurnSimConfig cfg = sim::LeftTurnSimConfig::paper_defaults();
    disturb(cfg, hardened);
    sim::MultiAgentSetup setup;
    setup.scenario = cfg.make_scenario();
    return Adapter(cfg, sim::MultiVehicleConfig{}, setup);
  }
};

// --- the conformance suite --------------------------------------------------

template <typename Fixture>
class AdapterConformance : public ::testing::Test {};

using AdapterTypes = ::testing::Types<LeftTurnFixture, LaneChangeFixture,
                                      IntersectionFixture,
                                      MultiVehicleFixture>;
TYPED_TEST_SUITE(AdapterConformance, AdapterTypes);

TYPED_TEST(AdapterConformance, HasNonEmptyNameAndValidRunConfig) {
  const auto adapter = TypeParam::make();
  EXPECT_FALSE(adapter.name().empty());
  const sim::RunConfig& run = adapter.run();
  EXPECT_GT(run.dt_c, 0.0);
  EXPECT_GT(run.horizon, 0.0);
  EXPECT_GE(run.total_steps(), 1u);
}

TYPED_TEST(AdapterConformance, SameSeedIsBitReproducible) {
  const auto adapter = TypeParam::make();
  for (const std::uint64_t seed : {1u, 99u, 4242u}) {
    const sim::RunResult a = sim::run_episode(adapter, seed);
    const sim::RunResult b = sim::run_episode(adapter, seed);
    EXPECT_EQ(a.collided, b.collided);
    EXPECT_EQ(a.reached, b.reached);
    EXPECT_EQ(a.reach_time, b.reach_time);  // exact
    EXPECT_EQ(a.eta, b.eta);                // exact
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.emergency_steps, b.emergency_steps);
  }
}

TYPED_TEST(AdapterConformance, StepAndOutcomeInvariants) {
  const auto adapter = TypeParam::make();
  const std::size_t total = adapter.run().total_steps();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const sim::RunResult r = sim::run_episode(adapter, seed);
    EXPECT_GE(r.steps, 1u);
    EXPECT_LE(r.steps, total);
    EXPECT_LE(r.emergency_steps, r.steps);
    // Collided and reached are mutually exclusive episode outcomes.
    EXPECT_FALSE(r.collided && r.reached);
    if (r.reached) {
      EXPECT_GT(r.reach_time, 0.0);
      EXPECT_GT(r.eta, 0.0);  // reaching scores positive utility
    } else {
      EXPECT_EQ(r.reach_time, 0.0);
    }
    if (r.collided) {
      EXPECT_LT(r.eta, 0.0);  // unsafe scores negative
    }
    if (!r.collided && r.steps < total) {
      // Early termination without collision must mean target reached.
      EXPECT_TRUE(r.reached);
    }
  }
}

TYPED_TEST(AdapterConformance, StepHookSeesEveryStepInOrder) {
  struct Recorder final
      : sim::StepHook<typename TypeParam::Adapter::WorldType> {
    using World = typename TypeParam::Adapter::WorldType;
    std::vector<std::size_t> steps;
    std::size_t emergencies = 0;
    bool finished = false;
    void on_step(std::size_t step, double t, const World& world,
                 const vehicle::VehicleState& /*ego*/, double /*a0*/,
                 bool emergency,
                 const sim::Episode<World>& /*episode*/) override {
      EXPECT_EQ(world.t, t);
      steps.push_back(step);
      if (emergency) ++emergencies;
    }
    void on_finish(const sim::Episode<World>& /*episode*/) override {
      finished = true;
    }
  };

  const auto adapter = TypeParam::make();
  Recorder rec;
  const sim::RunResult r = sim::run_episode(adapter, /*seed=*/7, &rec);
  EXPECT_TRUE(rec.finished);
  ASSERT_EQ(rec.steps.size(), r.steps);
  for (std::size_t i = 0; i < rec.steps.size(); ++i) {
    EXPECT_EQ(rec.steps[i], i);  // consecutive from zero
  }
  EXPECT_EQ(rec.emergencies, r.emergency_steps);
}

TYPED_TEST(AdapterConformance, BatchMatchesIndependentEpisodes) {
  const auto adapter = TypeParam::make();
  constexpr std::size_t kN = 6;
  constexpr std::uint64_t kBase = 11;
  const std::vector<sim::RunResult> batch =
      sim::run_episodes(adapter, kN, kBase, /*threads=*/2);
  ASSERT_EQ(batch.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const sim::RunResult solo = sim::run_episode(adapter, kBase + i);
    EXPECT_EQ(batch[i].eta, solo.eta) << "episode " << i;        // exact
    EXPECT_EQ(batch[i].steps, solo.steps) << "episode " << i;
    EXPECT_EQ(batch[i].reach_time, solo.reach_time) << "episode " << i;
  }

  const sim::BatchStats stats = sim::BatchStats::from_results(batch);
  EXPECT_EQ(stats.n, kN);
  ASSERT_EQ(stats.etas.size(), kN);
  std::size_t steps = 0;
  for (const auto& r : batch) steps += r.steps;
  EXPECT_EQ(stats.total_steps, steps);
  EXPECT_LE(stats.safe_count, kN);
  EXPECT_LE(stats.reached_count, kN);
}

TYPED_TEST(AdapterConformance, TracedEpisodesMatchPlainOnesAndTheirGateTally) {
  // The engine wires the recorder through, and tallies the gate of, the
  // same information filters: a traced episode runs exactly like a plain
  // one, and its accept/reject events count what its result tallies.
  const auto adapter = TypeParam::make(/*hardened=*/true);
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const sim::RunResult plain = sim::run_episode(adapter, seed);
    const auto [traced, dump] = sim::trace_episode(adapter, 0, seed);
    EXPECT_EQ(traced.collided, plain.collided);
    EXPECT_EQ(traced.reached, plain.reached);
    EXPECT_EQ(traced.reach_time, plain.reach_time);  // exact
    EXPECT_EQ(traced.eta, plain.eta);                // exact
    EXPECT_EQ(traced.steps, plain.steps);
    EXPECT_EQ(traced.emergency_steps, plain.emergency_steps);
    EXPECT_EQ(traced.ladder_steps, plain.ladder_steps);
    EXPECT_EQ(traced.ladder_transitions, plain.ladder_transitions);
    EXPECT_EQ(traced.messages_accepted, plain.messages_accepted);
    EXPECT_EQ(traced.messages_rejected, plain.messages_rejected);
    EXPECT_EQ(traced.rejection_reasons, plain.rejection_reasons);

    EXPECT_EQ(dump.overwritten, 0u);
    std::size_t accepts = 0;
    std::size_t rejects = 0;
    for (const obs::Event& e : dump.events) {
      const auto kind = static_cast<obs::EventKind>(e.kind);
      if (kind == obs::EventKind::kMessageAccept) ++accepts;
      if (kind == obs::EventKind::kMessageReject) ++rejects;
    }
    EXPECT_EQ(accepts, traced.messages_accepted);
    EXPECT_EQ(rejects, traced.messages_rejected);
    rejected += rejects;
  }
  EXPECT_GT(rejected, 0u) << "corruption faults never reached the gate";
}

}  // namespace
