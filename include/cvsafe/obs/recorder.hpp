#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cvsafe/obs/event.hpp"
#include "cvsafe/util/contracts.hpp"

/// \file recorder.hpp
/// The one event sink every instrumentation point writes to.
///
/// Components hold a `Recorder*` that defaults to nullptr and guard every
/// emit with `obs::recording(recorder)` — one pointer/flag test — before
/// building its arguments (boundary slack is not free).
///
/// A Recorder runs in one of two modes over the same storage:
///
///   armed     arm(config): a ring of config.ring_capacity events,
///             preallocated there, so emitting never allocates. Fleet pool
///             lanes arm one recorder each and clear() it at every
///             admission; triggered episodes are dumped at retirement.
///   growable  set_enabled(true): storage grows on demand up to
///             kMaxEvents — a traced episode keeps every event. clear()
///             keeps the storage, so a recorder reused across episodes
///             stops allocating once warm.
///
/// Either way, once full the oldest event is overwritten and counted
/// (overwritten()), never dropped silently, and event(i) reads the
/// retained events in causal order. A Recorder is single-threaded by
/// design: one episode, one recorder.

namespace cvsafe::obs {

/// Trigger bits: why an episode's events were dumped. An episode may
/// trip several at once; the dump header lists every reason.
enum Trigger : unsigned {
  kTriggerEta = 1u << 0,            ///< final eta below eta_threshold
  kTriggerEmergency = 1u << 1,      ///< monitor entered EMERGENCY at least once
  kTriggerUnsafe = 1u << 2,         ///< episode entered the unsafe set
  kTriggerRejectionBurst = 1u << 3, ///< gate rejections reached rejection_burst
};

/// Name of a single trigger bit (exactly one bit set).
const char* trigger_name(unsigned bit);

/// Arming parameters shared by every lane of a pool. The defaults are
/// tuned so a hardened fault-campaign cell produces dumps while a
/// nominal cell stays silent.
struct FlightRecorderConfig {
  /// Ring slots per lane. The ring keeps the causal *tail*: when full,
  /// the oldest event is overwritten and counted (never silent).
  std::size_t ring_capacity = 256;
  /// Dump when the episode's final eta is strictly below this.
  double eta_threshold = 0.05;
  /// Dump when the gate rejected at least this many messages. 0 disables
  /// the burst trigger.
  std::size_t rejection_burst = 8;
  /// Dump on EMERGENCY entry / unsafe-set entry.
  bool on_emergency = true;
  bool on_unsafe = true;
};

class Recorder {
 public:
  /// Capacity of the growable mode.
  static constexpr std::size_t kMaxEvents = 1u << 20;

  Recorder() = default;
  explicit Recorder(const FlightRecorderConfig& config) { arm(config); }

  /// Armed mode: reserves config.ring_capacity events (the only
  /// allocating call), clears, and starts recording.
  void arm(const FlightRecorderConfig& config) {
    CVSAFE_EXPECTS(config.ring_capacity > 0,
                   "flight recorder ring capacity must be positive");
    config_ = config;
    limit_ = config.ring_capacity;
    events_.clear();
    events_.reserve(limit_);
    clear();
    on_ = true;
  }

  /// Growable mode on/off. A default-constructed recorder records
  /// nothing until enabled or armed; a disabled one drops every emit.
  void set_enabled(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  /// Drops the events and the per-episode trigger state; keeps the
  /// storage.
  void clear() {
    events_.clear();
    head_ = 0;
    overwritten_ = 0;
    step_ = 0;
    rejections_ = 0;
    saw_emergency_ = false;
  }

  /// Stamps the control step applied to subsequent events.
  void begin_step(std::size_t step) {
    step_ = static_cast<std::uint32_t>(step);
  }

  // --- emit points (guard with recording(recorder) at the call site) ---

  void message_accept(std::uint32_t sender, double stamp) {
    push(EventKind::kMessageAccept, 0, static_cast<std::uint16_t>(sender),
         stamp);
  }
  void message_reject(std::uint32_t sender, GateRejectReason reason,
                      double stamp) {
    ++rejections_;
    push(EventKind::kMessageReject, static_cast<std::uint8_t>(reason),
         static_cast<std::uint16_t>(sender), stamp);
  }
  void gate_verdict(bool emergency, double slack) {
    if (emergency) saw_emergency_ = true;
    push(EventKind::kGateVerdict, emergency ? 1 : 0, 0, slack);
  }
  void ladder_transition(int from, int to, std::size_t monitor_step) {
    push(EventKind::kLadderTransition, static_cast<std::uint8_t>(to),
         static_cast<std::uint16_t>(from), static_cast<double>(monitor_step));
  }
  void eta_sample(double slack) { push(EventKind::kEtaSample, 0, 0, slack); }
  /// \p limit is the actuator bound the command \p requested crossed.
  void plan_clamp(double requested, double limit) {
    push(EventKind::kPlanClamp, requested < limit ? 0 : 1, 0, requested);
  }
  void fault(FaultKind kind, double value) {
    push(EventKind::kFault, static_cast<std::uint8_t>(kind), 0, value);
  }
  void rollback(double anchor_t, std::size_t replayed) {
    push(EventKind::kKalmanRollback, 0,
         static_cast<std::uint16_t>(std::min<std::size_t>(replayed, 0xFFFF)),
         anchor_t);
  }
  /// \p ladder_level < 0: no ladder armed.
  void step(double accel, bool emergency, int ladder_level) {
    push(EventKind::kStep, emergency ? 1 : 0,
         ladder_level < 0 ? kNoLadder
                          : static_cast<std::uint16_t>(ladder_level),
         accel);
  }
  /// Stamped with \p steps, the episode length.
  void episode_end(bool collided, bool reached, double eta,
                   std::size_t steps) {
    begin_step(steps);
    push(EventKind::kEpisodeEnd,
         static_cast<std::uint8_t>((collided ? 1 : 0) | (reached ? 2 : 0)), 0,
         eta);
  }

  // --- trigger evaluation (retire time) ---

  /// Bitmask of Trigger reasons given the episode outcome. Evaluated
  /// from per-episode state only (recorder-tracked flags + the finished
  /// result), so the verdict is independent of scheduling.
  unsigned triggers(double eta, bool collided) const {
    unsigned mask = 0;
    if (eta < config_.eta_threshold) mask |= kTriggerEta;
    if (config_.on_emergency && saw_emergency_) mask |= kTriggerEmergency;
    if (config_.on_unsafe && collided) mask |= kTriggerUnsafe;
    if (config_.rejection_burst > 0 && rejections_ >= config_.rejection_burst) {
      mask |= kTriggerRejectionBurst;
    }
    return mask;
  }

  /// Gate rejections recorded since the last clear.
  std::size_t rejections() const { return rejections_; }
  bool saw_emergency() const { return saw_emergency_; }

  // --- snapshot ---

  /// Retained events.
  std::size_t size() const { return events_.size(); }
  /// Events the recorder holds before it overwrites.
  std::size_t capacity() const { return limit_; }
  /// Events evicted because the recorder was full.
  std::size_t overwritten() const { return overwritten_; }

  /// The i-th retained event in causal order (0 = oldest retained).
  const Event& event(std::size_t i) const {
    CVSAFE_EXPECTS(i < events_.size(), "event index out of range");
    const std::size_t slot = head_ + i;
    return events_[slot < events_.size() ? slot : slot - events_.size()];
  }

  /// Copies the retained events in causal order.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) out.push_back(event(i));
    return out;
  }

 private:
  void push(EventKind kind, std::uint8_t code, std::uint16_t aux,
            double value) {
    if (!on_) return;
    const Event e{step_, static_cast<std::uint8_t>(kind), code, aux, value};
    if (events_.size() < limit_) {
      events_.push_back(e);
      return;
    }
    // Full: head_ is the oldest slot; overwrite it and advance.
    events_[head_] = e;
    head_ = head_ + 1 == limit_ ? 0 : head_ + 1;
    ++overwritten_;
  }

  FlightRecorderConfig config_{};
  std::size_t limit_ = kMaxEvents;
  std::vector<Event> events_;
  bool on_ = false;
  std::size_t head_ = 0;  ///< oldest retained slot once full, else 0
  std::size_t overwritten_ = 0;
  std::uint32_t step_ = 0;
  std::size_t rejections_ = 0;
  bool saw_emergency_ = false;
};

/// Call-site guard for instrumentation points: true when \p recorder is
/// attached and recording. Sites test this before building emit
/// arguments.
inline bool recording(const Recorder* recorder) {
  return recorder != nullptr && recorder->enabled();
}

}  // namespace cvsafe::obs
