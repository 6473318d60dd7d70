#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cvsafe/obs/event.hpp"

/// \file recorder.hpp
/// The event sink instrumentation points write to.
///
/// Components hold a `Recorder*` that defaults to nullptr; every emit
/// call is guarded by a single predictable branch so an unattached or
/// disabled recorder costs one pointer/flag test. Defining
/// `CVSAFE_TRACE_LEVEL=0` compiles the emit bodies out entirely.
///
/// A Recorder buffers events in memory and is written out *after* the
/// episode finishes (see sim/trace.hpp), which is what makes trace
/// output deterministic across thread counts: each episode owns one
/// recorder, and serialization happens in seed order on one thread.
/// A Recorder is single-threaded by design — never share one across
/// concurrently running episodes.

#ifndef CVSAFE_TRACE_LEVEL
#define CVSAFE_TRACE_LEVEL 1
#endif

namespace cvsafe::obs {

class Recorder {
 public:
  /// Whether emit bodies exist at all in this build.
  static constexpr bool kCompiledIn = CVSAFE_TRACE_LEVEL > 0;

  /// Hard cap on buffered events per episode. Overflow is *counted*
  /// (never silent): dropped() is serialized as its own trace line.
  static constexpr std::size_t kMaxEvents = 1u << 20;

  Recorder() = default;

  bool enabled() const { return enabled_; }

  /// Enabling is a no-op when tracing is compiled out.
  void set_enabled(bool on) { enabled_ = on && kCompiledIn; }

  /// Stamp the (step, t) context applied to subsequent events. Called
  /// by the engine hook at the top of each observe phase.
  void begin_step(std::size_t step, double t) {
    step_ = step;
    t_ = t;
  }

  /// \p reason is copied into the event only when recording.
  void monitor(bool to_emergency, bool in_boundary, double slack,
               std::string_view reason) {
#if CVSAFE_TRACE_LEVEL > 0
    if (!enabled_) return;
    push(MonitorEvent{to_emergency, in_boundary, slack, std::string(reason)});
#else
    (void)to_emergency;
    (void)in_boundary;
    (void)slack;
    (void)reason;
#endif
  }

  void ladder(std::string from, std::string to) {
#if CVSAFE_TRACE_LEVEL > 0
    if (!enabled_) return;
    push(LadderEvent{std::move(from), std::move(to)});
#else
    (void)from;
    (void)to;
#endif
  }

  void gate_rejection(std::uint32_t sender, GateRejectReason reason,
                      double msg_t) {
#if CVSAFE_TRACE_LEVEL > 0
    if (!enabled_) return;
    push(GateEvent{sender, reason, msg_t});
#else
    (void)sender;
    (void)reason;
    (void)msg_t;
#endif
  }

  void rollback(double anchor_t, std::size_t replayed) {
#if CVSAFE_TRACE_LEVEL > 0
    if (!enabled_) return;
    push(RollbackEvent{anchor_t, replayed});
#else
    (void)anchor_t;
    (void)replayed;
#endif
  }

  void fault(FaultKind kind, double value) {
#if CVSAFE_TRACE_LEVEL > 0
    if (!enabled_) return;
    push(FaultEvent{kind, value});
#else
    (void)kind;
    (void)value;
#endif
  }

  void step_summary(double accel, bool emergency, double margin,
                    int ladder_level) {
#if CVSAFE_TRACE_LEVEL > 0
    if (!enabled_) return;
    push(StepEvent{accel, emergency, margin, ladder_level});
#else
    (void)accel;
    (void)emergency;
    (void)margin;
    (void)ladder_level;
#endif
  }

  void episode_end(bool collided, bool reached, double eta,
                   std::size_t steps) {
#if CVSAFE_TRACE_LEVEL > 0
    if (!enabled_) return;
    push(EpisodeEvent{collided, reached, eta, steps});
#else
    (void)collided;
    (void)reached;
    (void)eta;
    (void)steps;
#endif
  }

  const std::vector<Event>& events() const { return events_; }

  /// Events rejected because the kMaxEvents cap was hit.
  std::size_t dropped() const { return dropped_; }

  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  void push(EventPayload payload) {
    if (events_.size() >= kMaxEvents) {
      ++dropped_;
      return;
    }
    events_.push_back(Event{step_, t_, std::move(payload)});
  }

  bool enabled_ = false;
  std::size_t step_ = 0;
  double t_ = 0.0;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
};

/// Call-site guard for instrumentation points: true when \p recorder is
/// attached and actively recording. Emit arguments are often not free to
/// build (level names, boundary slack), so sites test this *before*
/// constructing them — that is what keeps the disabled path within the
/// perf gate's 5% budget.
inline bool recording(const Recorder* recorder) {
  return Recorder::kCompiledIn && recorder != nullptr &&
         recorder->enabled();
}

}  // namespace cvsafe::obs
