#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cvsafe/adv/search.hpp"
#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/sim/fault_campaign.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/left_turn.hpp"

/// \file sim_flight_recorder_test.cpp
/// The flight recorder's fleet-level determinism contract: a hardened
/// campaign cell with recorders armed produces at least one triggered
/// dump, and the dump bytes (and the deterministic telemetry fold) are
/// identical across thread counts, pool capacities and batched sweeps /
/// scalar stacks. Also covers the campaign-level CampaignObs wiring
/// and the adversarial-search metrics satellite.

namespace {

using namespace cvsafe;

constexpr std::size_t kEpisodes = 12;
constexpr std::uint64_t kSeed = 2026;

/// The campaign's hardened left-turn cell under the corruption fault —
/// the configuration the smoke campaign showed trips rejection-burst
/// dumps reliably.
sim::LeftTurnSimConfig hardened_config() {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  const sim::FaultCondition cond = sim::FaultCondition::preset("corruption");
  config.comm = cond.comm;
  config.faults = cond.plan;
  config.gate = filter::GateConfig::hardened();
  config.ladder = core::LadderConfig{};
  return config;
}

sim::AgentBlueprint hardened_blueprint(const sim::LeftTurnSimConfig& config) {
  sim::AgentBlueprint bp;
  bp.name = "expert-compound";
  bp.scenario = config.make_scenario();
  bp.sensor = config.sensor;
  bp.config = sim::AgentConfig::ultimate_compound();
  bp.config.use_expert_planner = true;
  bp.config.gate = config.gate;
  bp.config.ladder = config.ladder;
  return bp;
}

/// Runs the hardened cell on the fleet engine with recorders armed and
/// returns {dump JSONL, deterministic telemetry text}.
std::pair<std::string, std::string> run_armed(std::size_t threads,
                                              std::size_t pool,
                                              bool batched_sweeps) {
  const sim::LeftTurnSimConfig config = hardened_config();
  const sim::AgentBlueprint bp = hardened_blueprint(config);
  sim::FleetConfig fleet;
  fleet.threads = threads;
  fleet.pool_capacity = pool;
  fleet.batched_sweeps = batched_sweeps;
  fleet.policy = sim::SeedPolicy::kDerived;
  obs::FlightDumpCollector dumps;
  sim::FleetObsSinks sinks;
  sinks.dumps = &dumps;
  const std::vector<sim::FleetRecord> records =
      sim::run_left_turn_fleet_records(config, bp, kEpisodes, kSeed, fleet,
                                       sinks);
  std::ostringstream jsonl;
  obs::write_flight_dumps_jsonl(jsonl, dumps.take_sorted(), "left-turn",
                                "corruption");
  obs::MetricsRegistry reg;
  sim::collect_fleet_telemetry(reg,
                               std::span<const sim::FleetRecord>(records));
  return {jsonl.str(), reg.prometheus_text()};
}

TEST(FlightRecorderFleet, DumpsAreByteIdenticalAcrossEngineShapes) {
  const auto [baseline_jsonl, baseline_telemetry] =
      run_armed(/*threads=*/1, /*pool=*/8192, /*batched_sweeps=*/true);
  ASSERT_FALSE(baseline_jsonl.empty())
      << "the hardened corruption cell must trip at least one dump";
  EXPECT_NE(baseline_jsonl.find("\"flight\""), std::string::npos);
  EXPECT_NE(baseline_jsonl.find("rejection_burst"), std::string::npos);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{7}}) {
    for (const std::size_t pool : {std::size_t{3}, std::size_t{64},
                                   std::size_t{8192}}) {
      for (const bool batched : {true, false}) {
        const auto [jsonl, telemetry] = run_armed(threads, pool, batched);
        EXPECT_EQ(jsonl, baseline_jsonl)
            << "threads=" << threads << " pool=" << pool
            << " batched=" << batched;
        EXPECT_EQ(telemetry, baseline_telemetry)
            << "threads=" << threads << " pool=" << pool
            << " batched=" << batched;
      }
    }
  }
}

TEST(FlightRecorderFleet, UntriggeredEpisodesProduceNoDump) {
  // Nominal channel, permissive gate: no rejections, no emergencies, and
  // eta stays far above the threshold — the collector must stay empty.
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  const sim::AgentBlueprint bp = hardened_blueprint(config);
  obs::FlightDumpCollector dumps;
  sim::FleetObsSinks sinks;
  sinks.dumps = &dumps;
  sim::FleetConfig fleet;
  fleet.policy = sim::SeedPolicy::kDerived;
  sim::run_left_turn_fleet_records(config, bp, 4, kSeed, fleet, sinks);
  EXPECT_EQ(dumps.size(), 0u);
}

TEST(FlightRecorderFleet, CampaignCellThreadsSinksThrough) {
  const sim::FaultCondition cond = sim::FaultCondition::preset("corruption");
  std::string baseline;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{7}}) {
    obs::FlightDumpCollector dumps;
    sim::FleetObsSinks sinks;
    sinks.dumps = &dumps;
    const std::vector<sim::RunResult> results = sim::run_campaign_cell(
        "left-turn", cond, kEpisodes, kSeed, threads, nullptr, sinks);
    ASSERT_EQ(results.size(), kEpisodes);
    EXPECT_GE(dumps.size(), 1u);
    std::ostringstream os;
    obs::write_flight_dumps_jsonl(os, dumps.take_sorted());
    if (baseline.empty()) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "threads=" << threads;
    }
  }
}

TEST(FlightRecorderFleet, CampaignObsEmitsLabeledDumpsAndTelemetry) {
  sim::CampaignConfig config = sim::CampaignConfig::smoke();
  config.scenarios = {"left-turn"};
  config.faults = {"corruption"};
  config.episodes_per_cell = 8;
  std::ostringstream flights;
  obs::MetricsRegistry telemetry;
  sim::SweepSpanSink spans;
  sim::CampaignObs observe;
  observe.flight_os = &flights;
  observe.metrics = &telemetry;
  observe.spans = &spans;
  const sim::CampaignResult result =
      sim::run_fault_campaign(config, nullptr, &observe);
  EXPECT_TRUE(result.invariant_ok());

  // Dumps carry the cell labels and deterministic telemetry folded.
  EXPECT_NE(flights.str().find("\"scenario\":\"left-turn\""),
            std::string::npos);
  EXPECT_NE(flights.str().find("\"fault\":\"corruption\""),
            std::string::npos);
  EXPECT_EQ(telemetry.counters().at("cvsafe_fleet_episodes_total").value(),
            8u);
  EXPECT_TRUE(telemetry.histograms().count("cvsafe_fleet_eta"));

  // Spans measured some work (wall clock — only existence is asserted).
  const sim::SweepSpans total = spans.total();
  std::uint64_t steps = 0;
  for (const auto& span : total.spans) steps += span.count;
  EXPECT_GT(steps, 0u);

  // The same campaign with observability off is byte-identical on the
  // deterministic artifact (the CSV): observation never perturbs runs.
  const sim::CampaignResult plain = sim::run_fault_campaign(config);
  EXPECT_EQ(sim::campaign_csv(plain), sim::campaign_csv(result));
}

TEST(SearchMetrics, CollectSearchMetricsFoldsTrace) {
  adv::SearchConfig config = adv::SearchConfig::smoke();
  config.threads = 2;
  const adv::SearchResult result = adv::run_search(config);
  obs::MetricsRegistry reg;
  adv::collect_search_metrics(reg, result);

  const std::uint64_t candidates =
      reg.counters().at("cvsafe_attack_candidates_total").value();
  EXPECT_EQ(candidates, result.trace.candidates.size());
  const std::uint64_t screened =
      reg.counters().at("cvsafe_attack_stealth_rejected_total").value();
  std::uint64_t expect_screened = 0;
  for (const adv::CandidateRecord& c : result.trace.candidates) {
    expect_screened += c.admissible ? 0 : 1;
  }
  EXPECT_EQ(screened, expect_screened);
  EXPECT_EQ(reg.counters().at("cvsafe_attack_collisions_total").value(), 0u);

  if (const adv::CandidateRecord* worst = result.worst()) {
    EXPECT_DOUBLE_EQ(reg.gauges().at("cvsafe_attack_best_eta").value(),
                     worst->cell.min_eta);
    // The per-iteration running-best series ends at the global best.
    const std::string last_key =
        "cvsafe_attack_best_eta{iteration=\"" +
        std::to_string(result.trace.candidates.back().iteration) + "\"}";
    ASSERT_TRUE(reg.gauges().count(last_key));
    EXPECT_DOUBLE_EQ(reg.gauges().at(last_key).value(),
                     worst->cell.min_eta);
  }

  // Determinism: the fold reads only the trace, so two folds agree.
  obs::MetricsRegistry again;
  adv::collect_search_metrics(again, result);
  EXPECT_EQ(reg.prometheus_text(), again.prometheus_text());
}

TEST(SearchMetrics, OffenderFlightDumpsAreDeterministic) {
  adv::SearchConfig config = adv::SearchConfig::smoke();
  config.threads = 2;
  const adv::SearchResult result = adv::run_search(config);
  if (result.offenders.empty()) {
    GTEST_SKIP() << "stealth screen admitted no candidate";
  }
  std::ostringstream a, b;
  const std::size_t na = adv::dump_offender_flights(result, 0, a);
  const std::size_t nb = adv::dump_offender_flights(result, 0, b);
  EXPECT_EQ(na, nb);
  EXPECT_EQ(a.str(), b.str());
  if (na > 0) {
    EXPECT_NE(a.str().find("\"fault\":\"adv-0\""), std::string::npos);
  }
}

}  // namespace
