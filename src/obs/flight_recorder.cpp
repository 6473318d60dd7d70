#include "cvsafe/obs/flight_recorder.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <ostream>

#include "cvsafe/obs/jsonl.hpp"

namespace cvsafe::obs {

const char* ring_event_kind_name(RingEventKind kind) {
  switch (kind) {
    case RingEventKind::kMessageAccept:
      return "message_accept";
    case RingEventKind::kMessageReject:
      return "message_reject";
    case RingEventKind::kGateVerdict:
      return "gate_verdict";
    case RingEventKind::kLadderTransition:
      return "ladder_transition";
    case RingEventKind::kEtaSample:
      return "eta_sample";
    case RingEventKind::kPlanClamp:
      return "plan_clamp";
  }
  return "unknown";
}

const char* ring_trigger_name(unsigned bit) {
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

/// The code byte rendered per kind: a reason name for rejections, a
/// degradation level index for ladder transitions, a 0/1 flag otherwise.
void append_event_code(std::string& out, const RingEvent& event) {
  const auto kind = static_cast<RingEventKind>(event.kind);
  if (kind == RingEventKind::kMessageReject) {
    out += "\"reason\":";
    append_json_string(out, to_string(static_cast<GateRejectReason>(
                                event.code)));
    append_uint(out, ",\"sender\":", event.aux);
  } else if (kind == RingEventKind::kLadderTransition) {
    append_uint(out, "\"from\":", event.aux);
    append_uint(out, ",\"to\":", event.code);
  } else if (kind == RingEventKind::kMessageAccept) {
    append_uint(out, "\"sender\":", event.aux);
  } else {
    append_uint(out, "\"code\":", event.code);
  }
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
    append_json_string(out, ring_trigger_name(bit));
  }
  out += "],\"eta\":";
  append_json_double(out, dump.eta);
  out += ",\"collided\":";
  out += dump.collided ? "true" : "false";
  append_uint(out, ",\"rejections\":", dump.rejections);
  append_uint(out, ",\"events\":", dump.events.size());
  append_uint(out, ",\"overwritten\":", dump.overwritten);
  out += "}}\n";

  for (const RingEvent& event : dump.events) {
    append_uint(out, "{\"episode\":", dump.episode);
    append_uint(out, ",\"step\":", event.step);
    out += ",\"kind\":";
    append_json_string(out,
                       ring_event_kind_name(
                           static_cast<RingEventKind>(event.kind)));
    out += ',';
    append_event_code(out, event);
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
