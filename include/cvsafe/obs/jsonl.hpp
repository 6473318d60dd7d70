#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cvsafe/obs/event.hpp"

/// \file jsonl.hpp
/// Deterministic JSONL serialization of trace events.
///
/// One JSON object per line, fixed key order, doubles printed with
/// %.17g (round-trip exact) — the same discipline as the fault-campaign
/// CSV, so a trace file is byte-identical across runs and thread counts
/// as long as events are serialized in seed order (sim/trace.hpp does).

namespace cvsafe::obs {

/// Identifies which episode a block of trace lines belongs to. The
/// scenario/fault labels are optional; empty strings are omitted from
/// the output.
struct EpisodeLabel {
  std::size_t episode = 0;
  std::uint64_t seed = 0;
  std::string scenario;
  std::string fault;
};

/// Append \p v formatted as printf %.17g would (17 significant digits:
/// round-trips every double); non-finite values append null.
void append_json_double(std::string& out, double v);

/// Append \p s as a quoted JSON string, escaping as needed.
void append_json_string(std::string& out, std::string_view s);

/// Serialize one event as a single JSON line (no trailing newline).
std::string event_jsonl_line(const Event& event, const EpisodeLabel& label);

/// Write all \p events for one episode, one line each, followed by a
/// "trace_dropped" line when \p dropped is nonzero — overflow is never
/// silent.
void write_events_jsonl(std::ostream& os, const std::vector<Event>& events,
                        const EpisodeLabel& label, std::size_t dropped = 0);

}  // namespace cvsafe::obs
