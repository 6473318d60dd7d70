#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/jsonl.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/obs/recorder.hpp"

/// \file obs_test.cpp
/// Unit tests for the observability module: the growable recorder
/// (enable gating, step stamping, the overflow cap), the deterministic
/// JSONL serializer (fixed key order, every event kind, %.17g doubles,
/// non-finite -> null, string escaping), the metrics registry (bucket
/// semantics, the shard-merge contract and the text exports). The armed
/// recorder's ring mechanics live in obs_flight_recorder_test.cpp.

namespace cvsafe {
namespace {

using obs::EventKind;
using obs::FaultKind;
using obs::FlightDump;
using obs::GateRejectReason;
using obs::Recorder;

// ---------------------------------------------------------------------------
// Recorder

TEST(Recorder, DisabledByDefaultAndDropsEverything) {
  Recorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.begin_step(3);
  rec.step(1.0, false, -1);
  rec.fault(FaultKind::kCorrupted, 0.2);
  rec.episode_end(false, true, 0.4, 100);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(Recorder, RecordingGuardTracksAttachmentAndEnable) {
  EXPECT_FALSE(obs::recording(nullptr));
  Recorder rec;
  EXPECT_FALSE(obs::recording(&rec));
  rec.set_enabled(true);
  EXPECT_TRUE(obs::recording(&rec));
  rec.set_enabled(false);
  EXPECT_FALSE(obs::recording(&rec));
  rec.arm(obs::FlightRecorderConfig{});
  EXPECT_TRUE(obs::recording(&rec)) << "arming starts recording";
}

TEST(Recorder, StampsStepContextOnEvents) {
  Recorder rec;
  rec.set_enabled(true);
  rec.begin_step(7);
  rec.gate_verdict(true, -0.01);
  rec.begin_step(8);
  rec.ladder_transition(0, 1, 8);
  rec.episode_end(false, true, 0.5, 120);
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.event(0).step, 7u);
  EXPECT_EQ(rec.event(0).kind,
            static_cast<std::uint8_t>(EventKind::kGateVerdict));
  EXPECT_EQ(rec.event(0).code, 1u);
  EXPECT_DOUBLE_EQ(rec.event(0).value, -0.01);
  EXPECT_EQ(rec.event(1).step, 8u);
  EXPECT_EQ(rec.event(1).aux, 0u);  // from full
  EXPECT_EQ(rec.event(1).code, 1u);  // to reach-only
  EXPECT_EQ(rec.event(2).step, 120u) << "episode_end is stamped with steps";
  EXPECT_EQ(rec.event(2).code, 2u) << "reached, not collided";
}

TEST(Recorder, OverflowIsCountedNeverSilent) {
  Recorder rec;
  rec.set_enabled(true);
  EXPECT_EQ(rec.capacity(), Recorder::kMaxEvents);
  for (std::size_t i = 0; i < Recorder::kMaxEvents + 5; ++i) {
    rec.fault(FaultKind::kJittered, static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), Recorder::kMaxEvents);
  EXPECT_EQ(rec.overwritten(), 5u);
  EXPECT_DOUBLE_EQ(rec.event(0).value, 5.0) << "the oldest five went";
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.overwritten(), 0u);
  rec.fault(FaultKind::kJittered, 0.0);
  EXPECT_EQ(rec.size(), 1u);
}

// ---------------------------------------------------------------------------
// JSONL serialization

obs::Event event(std::uint32_t step, EventKind kind, std::uint8_t code,
                 std::uint16_t aux, double value) {
  return obs::Event{step, static_cast<std::uint8_t>(kind), code, aux, value};
}

/// The JSONL of a one-event dump of episode 2 (seed 42), header dropped.
std::string event_line(const obs::Event& e) {
  FlightDump dump;
  dump.episode = 2;
  dump.seed = 42;
  dump.events.push_back(e);
  std::ostringstream os;
  obs::write_flight_dump_jsonl(os, dump);
  const std::string text = os.str();
  const std::size_t first = text.find('\n') + 1;
  return text.substr(first, text.size() - first - 1);
}

TEST(Jsonl, FixedKeyOrderAndOptionalLabels) {
  FlightDump dump;
  dump.episode = 2;
  dump.seed = 42;
  dump.triggers = obs::kTriggerEmergency;
  dump.eta = 0.25;
  dump.rejections = 1;
  dump.events.push_back(event(5, EventKind::kStep, 1, 2, -1.5));
  std::ostringstream bare;
  obs::write_flight_dump_jsonl(bare, dump);
  EXPECT_EQ(bare.str(),
            "{\"flight\":{\"episode\":2,\"seed\":42,"
            "\"triggers\":[\"emergency_entry\"],\"eta\":0.25,"
            "\"collided\":false,\"rejections\":1,\"events\":1,"
            "\"overwritten\":0}}\n"
            "{\"episode\":2,\"step\":5,\"kind\":\"step\",\"emergency\":true,"
            "\"ladder_level\":2,\"value\":-1.5}\n");
  std::ostringstream labeled;
  obs::write_flight_dump_jsonl(labeled, dump, "left-turn", "blackout");
  EXPECT_EQ(labeled.str().substr(0, labeled.str().find(",\"triggers\"")),
            "{\"flight\":{\"episode\":2,\"seed\":42,"
            "\"scenario\":\"left-turn\",\"fault\":\"blackout\"");
}

TEST(Jsonl, EveryPayloadTypeSerializes) {
  // Dyadic values print in shortest form under %.17g, keeping the
  // expectations literal.
  EXPECT_EQ(event_line(event(0, EventKind::kMessageAccept, 0, 7, 0.125)),
            "{\"episode\":2,\"step\":0,\"kind\":\"message_accept\","
            "\"sender\":7,\"value\":0.125}");
  EXPECT_EQ(event_line(event(1, EventKind::kMessageReject,
                             static_cast<std::uint8_t>(
                                 GateRejectReason::kImplausible),
                             7, 0.125)),
            "{\"episode\":2,\"step\":1,\"kind\":\"message_reject\","
            "\"reason\":\"implausible\",\"sender\":7,\"value\":0.125}");
  EXPECT_EQ(event_line(event(2, EventKind::kGateVerdict, 1, 0, -0.5)),
            "{\"episode\":2,\"step\":2,\"kind\":\"gate_verdict\","
            "\"code\":1,\"value\":-0.5}");
  EXPECT_EQ(event_line(event(3, EventKind::kLadderTransition, 2, 0, 3.0)),
            "{\"episode\":2,\"step\":3,\"kind\":\"ladder_transition\","
            "\"from\":0,\"to\":2,\"value\":3}");
  EXPECT_EQ(event_line(event(4, EventKind::kEtaSample, 0, 0, 29.5)),
            "{\"episode\":2,\"step\":4,\"kind\":\"eta_sample\","
            "\"code\":0,\"value\":29.5}");
  EXPECT_EQ(event_line(event(5, EventKind::kPlanClamp, 1, 0, 4.5)),
            "{\"episode\":2,\"step\":5,\"kind\":\"plan_clamp\","
            "\"code\":1,\"value\":4.5}");
  EXPECT_EQ(event_line(event(6, EventKind::kFault,
                             static_cast<std::uint8_t>(
                                 FaultKind::kSensorBiased),
                             0, 0.25)),
            "{\"episode\":2,\"step\":6,\"kind\":\"fault\","
            "\"action\":\"sensor_biased\",\"value\":0.25}");
  EXPECT_EQ(event_line(event(7, EventKind::kKalmanRollback, 0, 4, 0.125)),
            "{\"episode\":2,\"step\":7,\"kind\":\"kalman_rollback\","
            "\"replayed\":4,\"value\":0.125}");
  EXPECT_EQ(event_line(event(8, EventKind::kStep, 0, obs::kNoLadder, -1.5)),
            "{\"episode\":2,\"step\":8,\"kind\":\"step\",\"emergency\":false,"
            "\"ladder_level\":-1,\"value\":-1.5}");
  EXPECT_EQ(event_line(event(120, EventKind::kEpisodeEnd, 2, 0, 0.75)),
            "{\"episode\":2,\"step\":120,\"kind\":\"episode_end\","
            "\"collided\":false,\"reached\":true,\"value\":0.75}");
  static_assert(obs::kNumEventKinds == 10, "cover every kind above");
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
  // A rejected non-finite payload carries its NaN into the event line;
  // the line must stay parseable JSON.
  EXPECT_EQ(event_line(event(1, EventKind::kMessageReject,
                             static_cast<std::uint8_t>(
                                 GateRejectReason::kNonFinite),
                             3, std::numeric_limits<double>::quiet_NaN())),
            "{\"episode\":2,\"step\":1,\"kind\":\"message_reject\","
            "\"reason\":\"non_finite\",\"sender\":3,\"value\":null}");
}

TEST(Jsonl, StringEscaping) {
  std::string out;
  obs::append_json_string(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

// Lost events are never silent: the dump of a recorder that overwrote
// events says how many in its header.
TEST(Jsonl, WriteEventsAppendsDroppedMarker) {
  obs::FlightRecorderConfig config;
  config.ring_capacity = 2;
  Recorder rec(config);
  for (int i = 0; i < 5; ++i) rec.fault(FaultKind::kCorrupted, 1.0);
  std::ostringstream os;
  obs::write_flight_dump_jsonl(os, obs::flight_dump(rec, 2, 42, 1.0, false),
                               "left-turn");
  EXPECT_NE(os.str().find("\"events\":2,\"overwritten\":3}}"),
            std::string::npos)
      << os.str();
  Recorder clean;
  clean.set_enabled(true);
  clean.fault(FaultKind::kCorrupted, 1.0);
  std::ostringstream ok;
  obs::write_flight_dump_jsonl(ok, obs::flight_dump(clean, 2, 42, 1.0, false));
  EXPECT_NE(ok.str().find("\"overwritten\":0}}"), std::string::npos);
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

}  // namespace
}  // namespace cvsafe
