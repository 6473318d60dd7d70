#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cvsafe/obs/recorder.hpp"

/// \file flight_recorder.hpp
/// Episode dumps and their one JSONL writer.
///
/// A FlightDump is one episode's recorded events in causal order plus a
/// header: the fleet pool takes one when a retiring lane's armed recorder
/// trips a trigger (min-eta below threshold, EMERGENCY entry, unsafe-set
/// entry, rejection burst), and every traced episode (`run --trace`,
/// `campaign --trace`, attack offender traces) becomes one. Both are
/// written by write_flight_dumps_jsonl, one header line per episode and
/// one line per event, so a traced episode reads the same as a
/// flight-recorded one.
///
/// Determinism contract: events are emitted by per-episode control-stack
/// code whose order is pinned by the engine's draw-order contract,
/// triggers are evaluated from per-episode state only, and dumps are
/// serialized sorted by episode index — so the bytes are identical
/// across thread counts, pool sizes and batched/per-lane engines.

namespace cvsafe::obs {

/// One episode's dumped events: header metadata plus the recorder's
/// retained events in causal order.
struct FlightDump {
  std::size_t episode = 0;    ///< episode index (the determinism key)
  std::uint64_t seed = 0;     ///< episode seed
  unsigned triggers = 0;      ///< Trigger bitmask
  double eta = 0.0;           ///< final evaluation value
  bool collided = false;
  std::size_t rejections = 0;  ///< gate rejections over the episode
  std::size_t overwritten = 0; ///< events evicted because the recorder was full
  std::vector<Event> events;
};

/// Snapshots \p recorder into the dump of episode \p episode (seed
/// \p seed) that finished with (\p eta, \p collided); triggers are the
/// recorder's verdict for that outcome.
FlightDump flight_dump(const Recorder& recorder, std::size_t episode,
                       std::uint64_t seed, double eta, bool collided);

/// Thread-safe sink the pool's retire path hands triggered dumps to.
/// Collection order is scheduling-dependent; serialization sorts by
/// episode index, which restores byte-identity.
class FlightDumpCollector {
 public:
  void add(FlightDump dump) {
    const std::lock_guard<std::mutex> lock(mutex_);
    dumps_.push_back(std::move(dump));
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dumps_.size();
  }

  /// Moves the collected dumps out, sorted by episode index.
  std::vector<FlightDump> take_sorted();

 private:
  mutable std::mutex mutex_;
  std::vector<FlightDump> dumps_;
};

/// Serializes one dump: a header line ("flight" object) followed by one
/// line per event, fixed key order, doubles in %.17g — byte-identical
/// for identical dumps. Empty labels are omitted.
void write_flight_dump_jsonl(std::ostream& os, const FlightDump& dump,
                             const std::string& scenario = std::string(),
                             const std::string& fault = std::string());

/// Serializes every dump in episode-index order. Returns the number of
/// dumps written.
std::size_t write_flight_dumps_jsonl(std::ostream& os,
                                     std::vector<FlightDump> dumps,
                                     const std::string& scenario = std::string(),
                                     const std::string& fault = std::string());

}  // namespace cvsafe::obs
