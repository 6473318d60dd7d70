#pragma once

#include <cstddef>
#include <cstdint>

/// \file event.hpp
/// The one event schema of the safety stack.
///
/// Each event captures one runtime decision that the framework's safety
/// argument rests on — the monitor choosing kappa_e iff x(t) is in X_b
/// (Eq. 3), the degradation ladder moving between levels, the
/// plausibility gate screening a message, the Kalman filter rolling back
/// for a delayed message, a fault model perturbing a channel/sensor — or
/// the per-step context a traced episode adds (applied command, episode
/// outcome). Every event is the same 16-byte POD; the kind selects how
/// code/aux/value read (table in docs/OBSERVABILITY.md). Recording lives
/// in recorder.hpp, serialization in flight_recorder.hpp.

namespace cvsafe::obs {

/// Why the plausibility gate rejected a message. Mirrors the counter
/// fields of filter::RejectionCounters one-to-one.
enum class GateRejectReason : std::uint8_t {
  kNonFinite = 0,
  kOutOfRange,
  kStale,
  kImplausible,
};

const char* to_string(GateRejectReason reason);

/// Which fault stage acted on a message or sensor reading.
enum class FaultKind : std::uint8_t {
  kBlackoutDropped = 0,  ///< channel: message dropped in a blackout window
  kCorrupted,            ///< channel: payload perturbed
  kStaleSpoofed,         ///< channel: timestamp rewound
  kJittered,             ///< channel: extra delivery delay
  kReordered,            ///< channel: delivery order swapped
  kDuplicated,           ///< channel: message delivered twice
  kSensorDropped,        ///< sensor: reading suppressed
  kSensorStuck,          ///< sensor: reading frozen at a stale value
  kSensorBiased,         ///< sensor: drift bias added
};

const char* to_string(FaultKind kind);

/// Event kinds. The set is closed and every kind's code/aux/value layout
/// is fixed.
enum class EventKind : std::uint8_t {
  kMessageAccept = 0,    ///< gate admitted a message (aux=sender, value=stamp)
  kMessageReject = 1,    ///< gate rejected (code=GateRejectReason, aux=sender,
                         ///< value=stamp)
  kGateVerdict = 2,      ///< monitor switched planners (code=1: into
                         ///< kappa_e, 0: back; value=boundary slack)
  kLadderTransition = 3, ///< degradation level change (code=to, aux=from,
                         ///< value=monitor step)
  kEtaSample = 4,        ///< per-step boundary slack (value=slack)
  kPlanClamp = 5,        ///< command outside the actuator limits (code=0:
                         ///< below a_min, 1: above a_max; value=command)
  kFault = 6,            ///< fault stage acted (code=FaultKind, value=
                         ///< stage-specific magnitude)
  kKalmanRollback = 7,   ///< message rollback (aux=history entries
                         ///< replayed, value=anchor time)
  kStep = 8,             ///< traced control step (code=1 under kappa_e,
                         ///< aux=ladder level or kNoLadder, value=accel)
  kEpisodeEnd = 9,       ///< traced outcome (step=steps, code bit 0=
                         ///< collided, bit 1=reached; value=eta)
};

/// Number of distinct EventKind values (array sizing).
inline constexpr std::size_t kNumEventKinds = 10;

/// aux of a kStep event when no degradation ladder is armed.
inline constexpr std::uint16_t kNoLadder = 0xFFFF;

/// Stable lowercase name for JSONL serialization.
const char* event_kind_name(EventKind kind);

/// One event: 16 bytes, trivially copyable, no heap. `step` is the
/// control step the event was emitted in (stamped by
/// EpisodeRunner::observe_begin).
struct Event {
  std::uint32_t step = 0;
  std::uint8_t kind = 0;
  std::uint8_t code = 0;
  std::uint16_t aux = 0;
  double value = 0.0;
};
static_assert(sizeof(Event) == 16, "Event must stay compact");

}  // namespace cvsafe::obs
