#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cvsafe/obs/event.hpp"
#include "cvsafe/obs/jsonl.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/obs/profile.hpp"
#include "cvsafe/obs/recorder.hpp"

/// \file obs_test.cpp
/// Unit tests for the observability module: the event recorder (enable
/// gating, context stamping, the overflow cap), the deterministic JSONL
/// serializer (fixed key order, %.17g doubles, non-finite -> null,
/// string escaping), the metrics registry (bucket semantics, the
/// shard-merge contract, the text exports) and the profiling spans.

namespace cvsafe {
namespace {

using obs::Event;
using obs::EpisodeLabel;
using obs::FaultKind;
using obs::GateRejectReason;
using obs::Recorder;

// ---------------------------------------------------------------------------
// Recorder

TEST(Recorder, DisabledByDefaultAndDropsEverything) {
  Recorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.begin_step(3, 0.15);
  rec.step_summary(1.0, false, 0.5, -1);
  rec.fault(FaultKind::kCorrupted, 0.2);
  rec.episode_end(false, true, 0.4, 100);
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, RecordingGuardTracksAttachmentAndEnable) {
  EXPECT_FALSE(obs::recording(nullptr));
  Recorder rec;
  EXPECT_FALSE(obs::recording(&rec));
  rec.set_enabled(true);
  EXPECT_EQ(obs::recording(&rec), Recorder::kCompiledIn);
  rec.set_enabled(false);
  EXPECT_FALSE(obs::recording(&rec));
}

TEST(Recorder, StampsStepContextOnEvents) {
  Recorder rec;
  rec.set_enabled(true);
  rec.begin_step(7, 0.35);
  rec.monitor(true, true, -0.01, "front");
  rec.begin_step(8, 0.40);
  rec.ladder("full", "reach-only");
  ASSERT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.events()[0].step, 7u);
  EXPECT_DOUBLE_EQ(rec.events()[0].t, 0.35);
  EXPECT_EQ(rec.events()[1].step, 8u);
  EXPECT_DOUBLE_EQ(rec.events()[1].t, 0.40);
  const auto* mon = std::get_if<obs::MonitorEvent>(&rec.events()[0].payload);
  ASSERT_NE(mon, nullptr);
  EXPECT_TRUE(mon->to_emergency);
  EXPECT_EQ(mon->reason, "front");
  const auto* lad = std::get_if<obs::LadderEvent>(&rec.events()[1].payload);
  ASSERT_NE(lad, nullptr);
  EXPECT_EQ(lad->from, "full");
  EXPECT_EQ(lad->to, "reach-only");
}

TEST(Recorder, OverflowIsCountedNeverSilent) {
  Recorder rec;
  rec.set_enabled(true);
  for (std::size_t i = 0; i < Recorder::kMaxEvents + 5; ++i) {
    rec.fault(FaultKind::kJittered, 0.0);
  }
  EXPECT_EQ(rec.events().size(), Recorder::kMaxEvents);
  EXPECT_EQ(rec.dropped(), 5u);
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  rec.fault(FaultKind::kJittered, 0.0);
  EXPECT_EQ(rec.events().size(), 1u);
}

// ---------------------------------------------------------------------------
// JSONL serialization

EpisodeLabel label_with(std::string scenario = {}, std::string fault = {}) {
  EpisodeLabel label;
  label.episode = 2;
  label.seed = 42;
  label.scenario = std::move(scenario);
  label.fault = std::move(fault);
  return label;
}

Event at(std::size_t step, double t, obs::EventPayload payload) {
  return Event{step, t, std::move(payload)};
}

TEST(Jsonl, FixedKeyOrderAndOptionalLabels) {
  const Event e = at(5, 0.25, obs::StepEvent{-1.5, true, 0.125, 2});
  EXPECT_EQ(obs::event_jsonl_line(e, label_with()),
            "{\"ep\":2,\"seed\":42,\"step\":5,\"t\":0.25,"
            "\"type\":\"step\",\"accel\":-1.5,\"emergency\":true,"
            "\"margin\":0.125,\"ladder_level\":2}");
  EXPECT_EQ(obs::event_jsonl_line(e, label_with("left-turn", "blackout")),
            "{\"ep\":2,\"seed\":42,\"scenario\":\"left-turn\","
            "\"fault\":\"blackout\",\"step\":5,\"t\":0.25,"
            "\"type\":\"step\",\"accel\":-1.5,\"emergency\":true,"
            "\"margin\":0.125,\"ladder_level\":2}");
}

TEST(Jsonl, EveryPayloadTypeSerializes) {
  const EpisodeLabel label = label_with();
  EXPECT_EQ(
      obs::event_jsonl_line(
          at(0, 0.0, obs::MonitorEvent{true, true, -0.5, "front gap"}),
          label),
      "{\"ep\":2,\"seed\":42,\"step\":0,\"t\":0,\"type\":\"monitor\","
      "\"emergency\":true,\"in_boundary\":true,\"slack\":-0.5,"
      "\"reason\":\"front gap\"}");
  // Dyadic values print in shortest form under %.17g, keeping the
  // expectations literal.
  EXPECT_EQ(obs::event_jsonl_line(
                at(1, 0.0625, obs::LadderEvent{"full", "sensor-only"}),
                label),
            "{\"ep\":2,\"seed\":42,\"step\":1,\"t\":0.0625,"
            "\"type\":\"ladder\",\"from\":\"full\",\"to\":\"sensor-only\"}");
  EXPECT_EQ(obs::event_jsonl_line(
                at(2, 0.25,
                   obs::GateEvent{7, GateRejectReason::kImplausible, 0.125}),
                label),
            "{\"ep\":2,\"seed\":42,\"step\":2,\"t\":0.25,"
            "\"type\":\"gate_reject\",\"sender\":7,"
            "\"reason\":\"implausible\",\"msg_t\":0.125}");
  EXPECT_EQ(obs::event_jsonl_line(at(3, 0.375, obs::RollbackEvent{0.125, 4}),
                                  label),
            "{\"ep\":2,\"seed\":42,\"step\":3,\"t\":0.375,"
            "\"type\":\"kalman_rollback\",\"anchor_t\":0.125,"
            "\"replayed\":4}");
  EXPECT_EQ(obs::event_jsonl_line(
                at(4, 0.5, obs::FaultEvent{FaultKind::kSensorBiased, 0.25}),
                label),
            "{\"ep\":2,\"seed\":42,\"step\":4,\"t\":0.5,"
            "\"type\":\"fault\",\"kind\":\"sensor_biased\",\"value\":0.25}");
  EXPECT_EQ(obs::event_jsonl_line(
                at(6, 0.75, obs::EpisodeEvent{false, true, 0.75, 120}),
                label),
            "{\"ep\":2,\"seed\":42,\"step\":6,\"t\":0.75,"
            "\"type\":\"episode_end\",\"collided\":false,\"reached\":true,"
            "\"eta\":0.75,\"steps\":120}");
}

// append_json_double must print exactly what printf("%.17g") prints, for
// every finite double: random bit patterns, subnormals, signed zeros,
// integers around 2^53 and powers of ten.
TEST(Jsonl, DoublesMatchPrintfG17) {
  const auto printf_g17 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::vector<double> values{0.0, -0.0,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest(),
                             std::numeric_limits<double>::epsilon()};
  for (int e = -320; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    values.insert(values.end(), {p, -p, std::nextafter(p, 0.0),
                                 std::nextafter(p, 2.0 * p)});
  }
  const double two53 = 9007199254740992.0;
  for (int k = -64; k <= 64; ++k) {
    values.push_back(two53 + k);
    values.push_back(-(two53 + k));
    values.push_back(static_cast<double>(k) / 64.0);
  }
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;  // xorshift64
  for (int i = 0; i < 200000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double v = std::bit_cast<double>(state);
    if (std::isfinite(v)) values.push_back(v);
    // Subnormals: random mantissa, zero exponent.
    values.push_back(std::bit_cast<double>(state & 0x800FFFFFFFFFFFFFULL));
  }
  std::string out;
  for (const double v : values) {
    out.clear();
    obs::append_json_double(out, v);
    ASSERT_EQ(out, printf_g17(v)) << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(Jsonl, DoublesRoundTripAndNonFiniteBecomesNull) {
  std::string out;
  obs::append_json_double(out, 0.1);
  EXPECT_EQ(out, "0.10000000000000001");
  out.clear();
  obs::append_json_double(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "null");
  out.clear();
  obs::append_json_double(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  // A rejected non-finite payload carries its NaN into the trace line;
  // the line must stay parseable JSON.
  const Event e =
      at(1, 0.0625,
         obs::GateEvent{3, GateRejectReason::kNonFinite,
                        std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(obs::event_jsonl_line(e, label_with()),
            "{\"ep\":2,\"seed\":42,\"step\":1,\"t\":0.0625,"
            "\"type\":\"gate_reject\",\"sender\":3,"
            "\"reason\":\"non_finite\",\"msg_t\":null}");
}

TEST(Jsonl, StringEscaping) {
  std::string out;
  obs::append_json_string(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(Jsonl, WriteEventsAppendsDroppedMarker) {
  std::ostringstream os;
  std::vector<Event> events;
  events.push_back(at(0, 0.0, obs::FaultEvent{FaultKind::kCorrupted, 1.0}));
  obs::write_events_jsonl(os, events, label_with("left-turn"), 3);
  EXPECT_EQ(os.str(),
            "{\"ep\":2,\"seed\":42,\"scenario\":\"left-turn\","
            "\"step\":0,\"t\":0,\"type\":\"fault\",\"kind\":\"corrupted\","
            "\"value\":1}\n"
            "{\"ep\":2,\"seed\":42,\"scenario\":\"left-turn\","
            "\"type\":\"trace_dropped\",\"count\":3}\n");
  std::ostringstream clean;
  obs::write_events_jsonl(clean, events, label_with("left-turn"), 0);
  EXPECT_EQ(clean.str().find("trace_dropped"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, HistogramBucketsArePerBucketWithInfOverflow) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);
  h.observe(1.0);  // a bound belongs to its own bucket (le semantics)
  h.observe(1.5);
  h.observe(4.0);
  h.observe(100.0);  // overflow -> +Inf bucket
  ASSERT_EQ(h.counts().size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
}

TEST(Metrics, MergeAddsCountersAndHistogramsOverwritesGauges) {
  obs::MetricsRegistry a;
  a.counter("episodes").inc(3);
  a.gauge("min_eta").set(0.2);
  a.histogram("eta", {0.0, 1.0}).observe(0.5);

  obs::MetricsRegistry b;
  b.counter("episodes").inc(4);
  b.counter("only_in_b").inc();
  b.gauge("min_eta").set(-0.1);
  b.histogram("eta", {0.0, 1.0}).observe(-0.5);

  a.merge(b);
  EXPECT_EQ(a.counters().at("episodes").value(), 7u);
  EXPECT_EQ(a.counters().at("only_in_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauges().at("min_eta").value(), -0.1);
  const obs::Histogram& h = a.histograms().at("eta");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.counts()[0], 1u);  // -0.5 from b (le="0")
  EXPECT_EQ(h.counts()[1], 1u);  // 0.5 from a (le="1")
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Metrics, TextExportsAreNameOrderedRegardlessOfInsertion) {
  obs::MetricsRegistry forward;
  forward.counter("a_total").inc(1);
  forward.counter("b_total").inc(2);
  forward.gauge("z_gauge").set(3.5);

  obs::MetricsRegistry reverse;
  reverse.gauge("z_gauge").set(3.5);
  reverse.counter("b_total").inc(2);
  reverse.counter("a_total").inc(1);

  EXPECT_EQ(forward.prometheus_text(), reverse.prometheus_text());
  EXPECT_EQ(forward.csv(), reverse.csv());
}

TEST(Metrics, PrometheusTextShape) {
  obs::MetricsRegistry reg;
  reg.counter("cvsafe_episodes_total{fault=\"blackout\"}").inc(8);
  reg.gauge("cvsafe_min_eta").set(0.25);
  reg.histogram("cvsafe_eta", {0.0, 1.0}).observe(0.5);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE cvsafe_episodes_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("cvsafe_episodes_total{fault=\"blackout\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cvsafe_min_eta gauge"), std::string::npos);
  EXPECT_NE(text.find("cvsafe_min_eta 0.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cvsafe_eta histogram"), std::string::npos);
  EXPECT_NE(text.find("cvsafe_eta_bucket{le=\"0\"} 0"), std::string::npos);
  EXPECT_NE(text.find("cvsafe_eta_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("cvsafe_eta_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cvsafe_eta_sum 0.5"), std::string::npos);
  EXPECT_NE(text.find("cvsafe_eta_count 1"), std::string::npos);
}

TEST(Metrics, CsvShape) {
  obs::MetricsRegistry reg;
  reg.counter("hits").inc(2);
  reg.gauge("level").set(1.5);
  reg.histogram("lat", {1.0}).observe(0.5);
  const std::string csv = reg.csv();
  EXPECT_EQ(csv.rfind("kind,name,value\n", 0), 0u);
  EXPECT_NE(csv.find("counter,\"hits\",2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,\"level\",1.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram_bucket,\"lat[le=1]\",1"), std::string::npos);
  EXPECT_NE(csv.find("histogram_bucket,\"lat[le=+Inf]\",1"),
            std::string::npos);
  EXPECT_NE(csv.find("histogram_sum,\"lat\",0.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram_count,\"lat\",1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Profiling spans (process-global singleton: each test resets it)

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Profiler::instance().set_enabled(false);
    obs::Profiler::instance().clear();
  }
  void TearDown() override {
    obs::Profiler::instance().set_enabled(false);
    obs::Profiler::instance().clear();
  }
};

TEST_F(ProfilerTest, DisabledSpansRecordNothing) {
  { CVSAFE_PROFILE_SPAN("test.disabled"); }
  EXPECT_TRUE(obs::Profiler::instance().spans().empty());
}

TEST_F(ProfilerTest, EnabledSpansRecordNameAndDuration) {
  obs::Profiler::instance().set_enabled(true);
  { CVSAFE_PROFILE_SPAN("test.outer"); }
  obs::Profiler::instance().set_enabled(false);
  const auto spans = obs::Profiler::instance().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.outer");
}

TEST_F(ProfilerTest, ChromeTraceJsonShape) {
  auto& profiler = obs::Profiler::instance();
  profiler.record("b_second", 2000, 500);
  profiler.record("a_first", 1000, 250);
  const std::string json = profiler.chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Sorted by start time, not recording order.
  EXPECT_LT(json.find("a_first"), json.find("b_second"));
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":0.250"), std::string::npos);
}

TEST_F(ProfilerTest, OverflowIsCounted) {
  auto& profiler = obs::Profiler::instance();
  for (std::size_t i = 0; i < obs::Profiler::kMaxSpans + 2; ++i) {
    profiler.record("spam", i, 1);
  }
  EXPECT_EQ(profiler.spans().size(), obs::Profiler::kMaxSpans);
  EXPECT_EQ(profiler.dropped(), 2u);
}

}  // namespace
}  // namespace cvsafe
