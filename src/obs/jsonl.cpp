#include "cvsafe/obs/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace cvsafe::obs {

const char* to_string(GateRejectReason reason) {
  switch (reason) {
    case GateRejectReason::kNonFinite:
      return "non_finite";
    case GateRejectReason::kOutOfRange:
      return "out_of_range";
    case GateRejectReason::kStale:
      return "stale";
    case GateRejectReason::kImplausible:
      return "implausible";
  }
  return "?";
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBlackoutDropped:
      return "blackout_dropped";
    case FaultKind::kCorrupted:
      return "corrupted";
    case FaultKind::kStaleSpoofed:
      return "stale_spoofed";
    case FaultKind::kJittered:
      return "jittered";
    case FaultKind::kReordered:
      return "reordered";
    case FaultKind::kDuplicated:
      return "duplicated";
    case FaultKind::kSensorDropped:
      return "sensor_dropped";
    case FaultKind::kSensorStuck:
      return "sensor_stuck";
    case FaultKind::kSensorBiased:
      return "sensor_biased";
  }
  return "?";
}

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // NaN/inf are not valid JSON literals; a rejected non-finite payload
    // can carry one. null keeps the line parseable.
    out += "null";
    return;
  }
  // to_chars in general format at precision 17 is specified as printf
  // "%.17g" in the C locale, without the format-string parsing.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

void append_prefix(std::string& out, const EpisodeLabel& label) {
  out += "{\"ep\":";
  out += std::to_string(label.episode);
  out += ",\"seed\":";
  out += std::to_string(label.seed);
  if (!label.scenario.empty()) {
    out += ",\"scenario\":";
    append_json_string(out, label.scenario);
  }
  if (!label.fault.empty()) {
    out += ",\"fault\":";
    append_json_string(out, label.fault);
  }
}

void append_bool(std::string& out, bool v) { out += v ? "true" : "false"; }

struct PayloadWriter {
  std::string& out;

  void operator()(const MonitorEvent& e) const {
    out += ",\"type\":\"monitor\",\"emergency\":";
    append_bool(out, e.to_emergency);
    out += ",\"in_boundary\":";
    append_bool(out, e.in_boundary);
    out += ",\"slack\":";
    append_json_double(out, e.slack);
    out += ",\"reason\":";
    append_json_string(out, e.reason);
  }

  void operator()(const LadderEvent& e) const {
    out += ",\"type\":\"ladder\",\"from\":";
    append_json_string(out, e.from);
    out += ",\"to\":";
    append_json_string(out, e.to);
  }

  void operator()(const GateEvent& e) const {
    out += ",\"type\":\"gate_reject\",\"sender\":";
    out += std::to_string(e.sender);
    out += ",\"reason\":";
    append_json_string(out, to_string(e.reason));
    out += ",\"msg_t\":";
    append_json_double(out, e.msg_t);
  }

  void operator()(const RollbackEvent& e) const {
    out += ",\"type\":\"kalman_rollback\",\"anchor_t\":";
    append_json_double(out, e.anchor_t);
    out += ",\"replayed\":";
    out += std::to_string(e.replayed);
  }

  void operator()(const FaultEvent& e) const {
    out += ",\"type\":\"fault\",\"kind\":";
    append_json_string(out, to_string(e.kind));
    out += ",\"value\":";
    append_json_double(out, e.value);
  }

  void operator()(const StepEvent& e) const {
    out += ",\"type\":\"step\",\"accel\":";
    append_json_double(out, e.accel);
    out += ",\"emergency\":";
    append_bool(out, e.emergency);
    out += ",\"margin\":";
    append_json_double(out, e.margin);
    out += ",\"ladder_level\":";
    out += std::to_string(e.ladder_level);
  }

  void operator()(const EpisodeEvent& e) const {
    out += ",\"type\":\"episode_end\",\"collided\":";
    append_bool(out, e.collided);
    out += ",\"reached\":";
    append_bool(out, e.reached);
    out += ",\"eta\":";
    append_json_double(out, e.eta);
    out += ",\"steps\":";
    out += std::to_string(e.steps);
  }
};

}  // namespace

std::string event_jsonl_line(const Event& event, const EpisodeLabel& label) {
  std::string out;
  out.reserve(160);
  append_prefix(out, label);
  out += ",\"step\":";
  out += std::to_string(event.step);
  out += ",\"t\":";
  append_json_double(out, event.t);
  std::visit(PayloadWriter{out}, event.payload);
  out += '}';
  return out;
}

void write_events_jsonl(std::ostream& os, const std::vector<Event>& events,
                        const EpisodeLabel& label, std::size_t dropped) {
  for (const Event& e : events) {
    os << event_jsonl_line(e, label) << '\n';
  }
  if (dropped > 0) {
    std::string out;
    append_prefix(out, label);
    out += ",\"type\":\"trace_dropped\",\"count\":";
    out += std::to_string(dropped);
    out += '}';
    os << out << '\n';
  }
}

}  // namespace cvsafe::obs
