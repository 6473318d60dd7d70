#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/util/contracts.hpp"

/// \file obs_flight_recorder_test.cpp
/// Unit tests for the armed recorder: capacity/wraparound/causal order,
/// trigger evaluation, the JSONL dump format, the collector's
/// index-order restore — plus the metrics-registry satellites: the
/// histogram bounds-mismatch contract and shard-merge determinism of
/// dyadic-valued histograms.

namespace cvsafe {
namespace {

using obs::Event;
using obs::EventKind;
using obs::FlightDump;
using obs::FlightDumpCollector;
using obs::FlightRecorderConfig;
using obs::GateRejectReason;
using obs::Recorder;
using util::ContractMode;
using util::ContractViolation;
using util::ScopedContractMode;

// ---------------------------------------------------------------------------
// Ring mechanics

TEST(Recorder, UnarmedRecordsNothing) {
  Recorder rec;
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(obs::recording(&rec));
  rec.message_accept(1, 0.5);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(Recorder, ArmedRecordsInCausalOrder) {
  FlightRecorderConfig config;
  config.ring_capacity = 8;
  Recorder rec(config);
  ASSERT_TRUE(obs::recording(&rec));
  EXPECT_EQ(rec.capacity(), 8u);

  rec.begin_step(3);
  rec.message_accept(/*sender=*/1, /*stamp=*/0.5);
  rec.begin_step(4);
  rec.eta_sample(0.25);
  rec.gate_verdict(/*emergency=*/true, /*slack=*/-0.1);

  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.overwritten(), 0u);
  EXPECT_EQ(rec.event(0).step, 3u);
  EXPECT_EQ(rec.event(0).kind,
            static_cast<std::uint8_t>(EventKind::kMessageAccept));
  EXPECT_EQ(rec.event(0).aux, 1u);
  EXPECT_EQ(rec.event(1).step, 4u);
  EXPECT_DOUBLE_EQ(rec.event(1).value, 0.25);
  EXPECT_EQ(rec.event(2).code, 1u);  // emergency verdict
  EXPECT_TRUE(rec.saw_emergency());
}

TEST(Recorder, WraparoundKeepsCausalTailAndCountsEvictions) {
  FlightRecorderConfig config;
  config.ring_capacity = 4;
  Recorder rec(config);
  for (std::uint32_t i = 0; i < 10; ++i) {
    rec.begin_step(i);
    rec.eta_sample(static_cast<double>(i));
  }
  ASSERT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.overwritten(), 6u);
  // Oldest retained is step 6, newest is step 9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.event(i).step, 6u + i);
    EXPECT_DOUBLE_EQ(rec.event(i).value, 6.0 + static_cast<double>(i));
  }
  const std::vector<Event> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().step, 6u);
  EXPECT_EQ(snap.back().step, 9u);
  // Every wrap position reads back in order: one more lap moves the
  // oldest slot again.
  for (std::uint32_t i = 10; i < 13; ++i) {
    rec.begin_step(i);
    rec.eta_sample(static_cast<double>(i));
    EXPECT_EQ(rec.event(0).step, i - 3);
    EXPECT_EQ(rec.event(3).step, i);
  }
  EXPECT_EQ(rec.overwritten(), 9u);
}

TEST(Recorder, ClearResetsEpisodeState) {
  Recorder rec{FlightRecorderConfig{}};
  rec.begin_step(1);
  rec.message_reject(2, GateRejectReason::kStale, 0.1);
  rec.gate_verdict(true, -1.0);
  EXPECT_EQ(rec.rejections(), 1u);
  EXPECT_TRUE(rec.saw_emergency());
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.rejections(), 0u);
  EXPECT_FALSE(rec.saw_emergency());
  EXPECT_TRUE(obs::recording(&rec)) << "clear keeps the recorder armed";
  EXPECT_EQ(rec.capacity(), FlightRecorderConfig{}.ring_capacity);
}

TEST(Recorder, TriggerMaskCoversEveryReason) {
  FlightRecorderConfig config;
  config.eta_threshold = 0.05;
  config.rejection_burst = 2;
  Recorder rec(config);

  EXPECT_EQ(rec.triggers(/*eta=*/1.0, /*collided=*/false), 0u);
  EXPECT_EQ(rec.triggers(/*eta=*/0.01, /*collided=*/false),
            obs::kTriggerEta);
  EXPECT_EQ(rec.triggers(/*eta=*/1.0, /*collided=*/true),
            obs::kTriggerUnsafe);

  rec.gate_verdict(true, -0.5);
  EXPECT_EQ(rec.triggers(1.0, false), obs::kTriggerEmergency);

  rec.message_reject(1, GateRejectReason::kImplausible, 0.0);
  EXPECT_EQ(rec.triggers(1.0, false), obs::kTriggerEmergency)
      << "one rejection is below the burst threshold";
  rec.message_reject(1, GateRejectReason::kImplausible, 0.1);
  EXPECT_EQ(rec.triggers(0.01, true),
            obs::kTriggerEta | obs::kTriggerEmergency | obs::kTriggerUnsafe |
                obs::kTriggerRejectionBurst);
}

TEST(Recorder, BurstTriggerDisabledByZero) {
  FlightRecorderConfig config;
  config.rejection_burst = 0;
  Recorder rec(config);
  rec.message_reject(1, GateRejectReason::kStale, 0.0);
  EXPECT_EQ(rec.triggers(1.0, false), 0u);
}

// ---------------------------------------------------------------------------
// Dump serialization

FlightDump make_dump(std::size_t episode) {
  FlightDump dump;
  dump.episode = episode;
  dump.seed = 42 + episode;
  dump.triggers = obs::kTriggerEta | obs::kTriggerRejectionBurst;
  dump.eta = 0.015625;  // dyadic: %.17g prints it exactly
  dump.collided = false;
  dump.rejections = 9;
  dump.overwritten = 2;
  Event reject;
  reject.step = 7;
  reject.kind = static_cast<std::uint8_t>(EventKind::kMessageReject);
  reject.code = static_cast<std::uint8_t>(GateRejectReason::kStale);
  reject.aux = 3;
  reject.value = 0.75;
  dump.events.push_back(reject);
  Event ladder;
  ladder.step = 8;
  ladder.kind = static_cast<std::uint8_t>(EventKind::kLadderTransition);
  ladder.code = 2;
  ladder.aux = 0;
  ladder.value = 8.0;
  dump.events.push_back(ladder);
  return dump;
}

TEST(FlightDumpJsonl, HeaderAndEventLines) {
  std::ostringstream os;
  obs::write_flight_dump_jsonl(os, make_dump(5), "left-turn", "corruption");
  const std::string text = os.str();
  EXPECT_NE(text.find("{\"flight\":{\"episode\":5,\"seed\":47,"
                      "\"scenario\":\"left-turn\",\"fault\":\"corruption\","),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"triggers\":[\"eta_below_threshold\","
                      "\"rejection_burst\"]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"eta\":0.015625"), std::string::npos) << text;
  EXPECT_NE(text.find("{\"episode\":5,\"step\":7,\"kind\":\"message_reject\","
                      "\"reason\":\"stale\",\"sender\":3,\"value\":0.75}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"kind\":\"ladder_transition\",\"from\":0,\"to\":2"),
            std::string::npos)
      << text;
  // One header + one line per event, each newline-terminated.
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 3u);
}

TEST(FlightDumpJsonl, OmitsEmptyLabels) {
  std::ostringstream os;
  obs::write_flight_dump_jsonl(os, make_dump(0));
  EXPECT_EQ(os.str().find("scenario"), std::string::npos);
  EXPECT_EQ(os.str().find("fault"), std::string::npos);
}

TEST(FlightDumpCollector, TakeSortedRestoresEpisodeOrder) {
  FlightDumpCollector collector;
  collector.add(make_dump(9));
  collector.add(make_dump(2));
  collector.add(make_dump(5));
  EXPECT_EQ(collector.size(), 3u);
  const std::vector<FlightDump> sorted = collector.take_sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].episode, 2u);
  EXPECT_EQ(sorted[1].episode, 5u);
  EXPECT_EQ(sorted[2].episode, 9u);
  EXPECT_EQ(collector.size(), 0u) << "take_sorted drains the collector";

  // write_flight_dumps_jsonl sorts on its own, so insertion order never
  // leaks into the bytes.
  FlightDumpCollector shuffled;
  shuffled.add(make_dump(5));
  shuffled.add(make_dump(9));
  shuffled.add(make_dump(2));
  std::ostringstream a, b;
  obs::write_flight_dumps_jsonl(a, sorted);
  EXPECT_EQ(obs::write_flight_dumps_jsonl(b, shuffled.take_sorted()), 3u);
  EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------------------
// Satellite: histogram refetch with mismatched bounds must be loud

TEST(MetricsRegistry, HistogramBoundsMismatchIsContractViolation) {
  ScopedContractMode mode(ContractMode::kThrow);
  obs::MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0}).observe(1.5);
  // Same bounds refetch is fine and returns the same histogram.
  EXPECT_EQ(reg.histogram("h", {1.0, 2.0}).count(), 1u);
  // Different bounds used to silently keep the first-creation buckets;
  // now it trips the same contract the shard merge enforces.
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), ContractViolation);
  EXPECT_THROW(reg.histogram("h", {1.0}), ContractViolation);
}

// ---------------------------------------------------------------------------
// Satellite: shard-merge determinism of dyadic-valued histograms

/// Observes \p n dyadic values (exactly representable, so bucket edges
/// decide identically on every platform) round-robin across \p shards
/// shard-local registries, then merges in shard order.
obs::MetricsRegistry sharded_fold(std::size_t shards, std::size_t n) {
  const std::vector<double> bounds{-0.5, 0.0, 0.25, 0.5, 1.0, 2.0};
  std::vector<obs::MetricsRegistry> locals(shards);
  for (std::size_t i = 0; i < n; ++i) {
    // Dyadic sweep over [-1, 3): i/8 - 1 with an exact 1/8 step.
    const double v = static_cast<double>(i % 32) * 0.125 - 1.0;
    obs::MetricsRegistry& shard = locals[i % shards];
    shard.histogram("cvsafe_fleet_eta", bounds).observe(v);
    shard.counter("cvsafe_fleet_episodes_total").inc();
  }
  obs::MetricsRegistry merged;
  for (const obs::MetricsRegistry& shard : locals) merged.merge(shard);
  return merged;
}

TEST(MetricsRegistry, DyadicHistogramMergeIsShardCountInvariant) {
  for (const std::size_t n : {std::size_t{3}, std::size_t{64},
                              std::size_t{8192}}) {
    const obs::MetricsRegistry one = sharded_fold(1, n);
    const std::string text = one.prometheus_text();
    for (const std::size_t shards : {std::size_t{4}, std::size_t{7}}) {
      const obs::MetricsRegistry many = sharded_fold(shards, n);
      EXPECT_EQ(text, many.prometheus_text())
          << n << " values over " << shards << " shards";
      EXPECT_EQ(one.csv(), many.csv());
      const auto& h1 = one.histograms().at("cvsafe_fleet_eta");
      const auto& hn = many.histograms().at("cvsafe_fleet_eta");
      EXPECT_EQ(h1.counts(), hn.counts());
      EXPECT_EQ(h1.count(), n);
    }
  }
}

}  // namespace
}  // namespace cvsafe
