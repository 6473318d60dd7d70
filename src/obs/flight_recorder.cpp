#include "cvsafe/obs/flight_recorder.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <ostream>

#include "cvsafe/obs/jsonl.hpp"

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

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kMessageAccept:
      return "message_accept";
    case EventKind::kMessageReject:
      return "message_reject";
    case EventKind::kGateVerdict:
      return "gate_verdict";
    case EventKind::kLadderTransition:
      return "ladder_transition";
    case EventKind::kEtaSample:
      return "eta_sample";
    case EventKind::kPlanClamp:
      return "plan_clamp";
    case EventKind::kFault:
      return "fault";
    case EventKind::kKalmanRollback:
      return "kalman_rollback";
    case EventKind::kStep:
      return "step";
    case EventKind::kEpisodeEnd:
      return "episode_end";
  }
  return "unknown";
}

const char* trigger_name(unsigned bit) {
  switch (bit) {
    case kTriggerEta:
      return "eta_below_threshold";
    case kTriggerEmergency:
      return "emergency_entry";
    case kTriggerUnsafe:
      return "unsafe_set_entry";
    case kTriggerRejectionBurst:
      return "rejection_burst";
    default:
      return "unknown";
  }
}

FlightDump flight_dump(const Recorder& recorder, std::size_t episode,
                       std::uint64_t seed, double eta, bool collided) {
  FlightDump dump;
  dump.episode = episode;
  dump.seed = seed;
  dump.triggers = recorder.triggers(eta, collided);
  dump.eta = eta;
  dump.collided = collided;
  dump.rejections = recorder.rejections();
  dump.overwritten = recorder.overwritten();
  dump.events = recorder.snapshot();
  return dump;
}

std::vector<FlightDump> FlightDumpCollector::take_sorted() {
  std::vector<FlightDump> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.swap(dumps_);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightDump& a, const FlightDump& b) {
              return a.episode < b.episode;
            });
  return out;
}

namespace {

/// Appends \p key, then \p v in decimal.
void append_uint(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_bool(std::string& out, const char* key, bool v) {
  out += key;
  out += v ? "true" : "false";
}

/// The code/aux fields rendered per kind (table in
/// docs/OBSERVABILITY.md); kinds without named fields print "code".
void append_event_fields(std::string& out, const Event& event) {
  switch (static_cast<EventKind>(event.kind)) {
    case EventKind::kMessageAccept:
      append_uint(out, "\"sender\":", event.aux);
      return;
    case EventKind::kMessageReject:
      out += "\"reason\":";
      append_json_string(out,
                         to_string(static_cast<GateRejectReason>(event.code)));
      append_uint(out, ",\"sender\":", event.aux);
      return;
    case EventKind::kLadderTransition:
      append_uint(out, "\"from\":", event.aux);
      append_uint(out, ",\"to\":", event.code);
      return;
    case EventKind::kFault:
      out += "\"action\":";
      append_json_string(out, to_string(static_cast<FaultKind>(event.code)));
      return;
    case EventKind::kKalmanRollback:
      append_uint(out, "\"replayed\":", event.aux);
      return;
    case EventKind::kStep:
      append_bool(out, "\"emergency\":", event.code != 0);
      if (event.aux == kNoLadder) {
        out += ",\"ladder_level\":-1";
      } else {
        append_uint(out, ",\"ladder_level\":", event.aux);
      }
      return;
    case EventKind::kEpisodeEnd:
      append_bool(out, "\"collided\":", (event.code & 1u) != 0);
      append_bool(out, ",\"reached\":", (event.code & 2u) != 0);
      return;
    case EventKind::kGateVerdict:
    case EventKind::kEtaSample:
    case EventKind::kPlanClamp:
      break;
  }
  append_uint(out, "\"code\":", event.code);
}

/// Formats one dump — its header line, then one line per event — into
/// \p out (cleared first, storage reused) and writes it with one
/// os.write.
void write_dump(std::ostream& os, std::string& out, const FlightDump& dump,
                const std::string& scenario, const std::string& fault) {
  out.clear();
  append_uint(out, "{\"flight\":{\"episode\":", dump.episode);
  append_uint(out, ",\"seed\":", dump.seed);
  if (!scenario.empty()) {
    out += ",\"scenario\":";
    append_json_string(out, scenario);
  }
  if (!fault.empty()) {
    out += ",\"fault\":";
    append_json_string(out, fault);
  }
  out += ",\"triggers\":[";
  bool first = true;
  for (unsigned bit = kTriggerEta; bit <= kTriggerRejectionBurst; bit <<= 1u) {
    if ((dump.triggers & bit) == 0) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, trigger_name(bit));
  }
  out += "],\"eta\":";
  append_json_double(out, dump.eta);
  append_bool(out, ",\"collided\":", dump.collided);
  append_uint(out, ",\"rejections\":", dump.rejections);
  append_uint(out, ",\"events\":", dump.events.size());
  append_uint(out, ",\"overwritten\":", dump.overwritten);
  out += "}}\n";

  for (const Event& event : dump.events) {
    append_uint(out, "{\"episode\":", dump.episode);
    append_uint(out, ",\"step\":", event.step);
    out += ",\"kind\":";
    append_json_string(out,
                       event_kind_name(static_cast<EventKind>(event.kind)));
    out += ',';
    append_event_fields(out, event);
    out += ",\"value\":";
    append_json_double(out, event.value);
    out += "}\n";
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

}  // namespace

void write_flight_dump_jsonl(std::ostream& os, const FlightDump& dump,
                             const std::string& scenario,
                             const std::string& fault) {
  std::string buf;
  write_dump(os, buf, dump, scenario, fault);
}

std::size_t write_flight_dumps_jsonl(std::ostream& os,
                                     std::vector<FlightDump> dumps,
                                     const std::string& scenario,
                                     const std::string& fault) {
  std::sort(dumps.begin(), dumps.end(),
            [](const FlightDump& a, const FlightDump& b) {
              return a.episode < b.episode;
            });
  // One buffer for every dump: the file is never held in memory whole.
  std::string buf;
  for (const FlightDump& dump : dumps) {
    write_dump(os, buf, dump, scenario, fault);
  }
  return dumps.size();
}

}  // namespace cvsafe::obs
