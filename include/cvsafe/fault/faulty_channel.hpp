#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cvsafe/comm/channel.hpp"
#include "cvsafe/fault/fault_plan.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/util/rng.hpp"

/// \file faulty_channel.hpp
/// Fault-injecting decorator over comm::Channel.
///
/// The inner channel's transmission schedule and loss model run FIRST and
/// unchanged, drawing from the episode RNG exactly as an undecorated
/// channel would (Channel::admit). Only then does the decorator reshape
/// admitted messages — blackout discard, payload corruption, timestamp
/// spoofing, delivery-time jitter, reordering, duplication — drawing
/// exclusively from its own seeded fault RNG. Consequences:
///
///  * a decorator without an active fault model is bit-identical to the
///    plain channel (the no-fault path of every existing experiment);
///  * enabling faults never perturbs the episode's workload or the other
///    actors' draws, so fault campaigns run on PAIRED workloads.
///
/// Fault draw order per admitted message (fixed; campaigns depend on it):
/// corrupt? (3 perturbation draws when it fires), spoof? (1 draw),
/// jitter draw, reorder? (1 extra-delay draw), duplicate? (1 lag draw) —
/// each stage only consulted when its model parameter enables it.

namespace cvsafe::fault {

/// Injection counters of one decorated channel (per episode).
struct ChannelFaultStats {
  std::size_t jittered = 0;
  std::size_t reordered = 0;
  std::size_t duplicated = 0;
  std::size_t corrupted = 0;
  std::size_t stale_spoofed = 0;
  std::size_t blackout_dropped = 0;

  std::size_t total_injected() const {
    return jittered + reordered + duplicated + corrupted + stale_spoofed +
           blackout_dropped;
  }
};

/// comm::Channel decorated with a ChannelFaultModel.
class FaultyChannel {
 public:
  /// Pass-through decorator (no faults; bit-identical to Channel).
  explicit FaultyChannel(comm::CommConfig config) : inner_(config) {}

  /// Decorator injecting \p model, drawing from a dedicated RNG seeded
  /// with \p fault_seed. A model with no enabled fault degenerates to
  /// the pass-through decorator.
  FaultyChannel(comm::CommConfig config, const ChannelFaultModel& model,
                std::uint64_t fault_seed)
      : inner_(config), fault_rng_(fault_seed) {
    if (model.any()) model_ = model;
  }

  /// Same contract as Channel::offer; episode RNG draws are identical to
  /// the undecorated channel's. Without an active model this IS the plain
  /// Channel::offer behind one predictable branch, keeping the no-fault
  /// decoration overhead within the CI bench gate.
  void offer(const comm::Message& msg, util::Rng& rng) {
    if (!model_) {
      inner_.offer(msg, rng);
      return;
    }
    offer_faulty(msg, rng);
  }

  /// Same contract as Channel::collect.
  std::vector<comm::Message> collect(double t) { return inner_.collect(t); }

  /// Same contract as Channel::collect_into (allocation-free once the
  /// caller's buffer capacity has warmed up).
  void collect_into(double t, std::vector<comm::Message>& out) {
    inner_.collect_into(t, out);
  }

  const comm::CommConfig& config() const { return inner_.config(); }
  std::size_t in_flight() const { return inner_.in_flight(); }
  std::size_t sent_count() const { return inner_.sent_count(); }
  std::size_t dropped_count() const { return inner_.dropped_count(); }

  /// True when a fault model is active.
  bool faulty() const { return model_.has_value(); }

  const comm::Channel& inner() const { return inner_; }
  const ChannelFaultStats& stats() const { return stats_; }

  /// Attach a trace sink; every injection stage that fires is emitted as
  /// a fault event. Pass nullptr to detach. Tracing never touches the
  /// no-fault fast path.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

 private:
  /// The decorated slow path (model_ engaged): admit, then reshape.
  void offer_faulty(const comm::Message& msg, util::Rng& rng);

  comm::Channel inner_;
  std::optional<ChannelFaultModel> model_;
  util::Rng fault_rng_{0};
  ChannelFaultStats stats_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace cvsafe::fault
