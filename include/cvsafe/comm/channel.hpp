#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "cvsafe/comm/message.hpp"
#include "cvsafe/util/rng.hpp"

/// \file channel.hpp
/// Communication-disturbance model, Sections II-A and V of the paper.
///
/// Three experiment settings:
///  * *no disturbance*  — every message arrives immediately;
///  * *messages delayed* — each message is delayed by dt_d and additionally
///    dropped i.i.d. with probability p_drop;
///  * *messages lost*   — every message is dropped (sensor-only operation;
///    this also models unconnected vehicles).

namespace cvsafe::comm {

/// Channel configuration. Construction of a Channel validates the
/// configuration (validate()); NaN or out-of-range values are contract
/// violations.
struct CommConfig {
  double period = 0.1;     ///< transmission period dt_m [s]
  double delay = 0.0;      ///< delivery delay dt_d [s]
  double drop_prob = 0.0;  ///< i.i.d. drop probability p_drop in [0,1]
  bool lost = false;       ///< true: every message dropped

  /// Bursty (Gilbert-Elliott) loss extension. Real V2V links lose
  /// messages in bursts (shadowing, congestion), not i.i.d.; when
  /// enabled, the channel alternates between a *good* state dropping
  /// with `drop_prob` and a *bad* state dropping with `burst_drop_prob`,
  /// transitioning per transmission with the probabilities below.
  bool burst = false;
  double burst_drop_prob = 1.0;  ///< drop probability in the bad state
  double p_good_to_bad = 0.05;   ///< per-transmission G->B probability
  double p_bad_to_good = 0.3;    ///< per-transmission B->G probability

  /// Paper's "no disturbance" setting.
  static CommConfig no_disturbance(double period = 0.1);

  /// Paper's "messages delayed" setting (dt_d = 0.25 s by default).
  static CommConfig delayed(double drop_prob, double delay = 0.25,
                            double period = 0.1);

  /// Paper's "messages lost" setting.
  static CommConfig messages_lost(double period = 0.1);

  /// Gilbert-Elliott bursty-loss channel (extension): drops nothing in
  /// the good state, everything in the bad state, with the given
  /// expected burst length (in transmissions) and stationary bad-state
  /// fraction.
  static CommConfig bursty(double bad_fraction, double mean_burst_len,
                           double delay = 0.0, double period = 0.1);

  /// Stationary drop probability implied by the configuration.
  double stationary_drop_prob() const;

  /// Human-readable name of the setting.
  std::string label() const;

  /// Contract check: period > 0, delay >= 0, every probability in [0,1],
  /// all values finite (NaN fails every comparison and is rejected).
  void validate() const;
};

/// Simplex channel from one transmitting vehicle to the ego vehicle.
///
/// The transmitter calls offer() every control step; the channel decides
/// (from its internal schedule) whether this step is a transmission
/// instant, and if so whether the message is dropped, else enqueues it
/// with its delivery time. The receiver calls collect() every control
/// step to drain messages whose delivery time has come.
class Channel {
 public:
  explicit Channel(CommConfig config) : config_(config) {
    config_.validate();
  }

  const CommConfig& config() const { return config_; }

  /// Called by the transmitter each control step with the current exact
  /// snapshot. Transmissions happen every `period` seconds starting at
  /// t = 0 (a small epsilon absorbs floating-point drift).
  void offer(const Message& msg, util::Rng& rng);

  /// The transmission-schedule / loss-model half of offer(): advances the
  /// schedule and the Gilbert-Elliott state and returns true when the
  /// message survived (it must then be enqueued exactly once). Exposed so
  /// decorators (fault::FaultyChannel) can reshape the delivery of
  /// admitted messages without touching the episode's RNG draw order.
  bool admit(const Message& msg, util::Rng& rng);

  /// Enqueues an admitted (possibly decorated) message for delivery at
  /// \p delivery_time. offer() == admit() + enqueue(stamp + delay).
  void enqueue(const Message& msg, double delivery_time);

  /// Returns (and removes) all messages delivered by time \p t, in
  /// delivery order; entries with equal delivery time drain in enqueue
  /// (FIFO) order.
  std::vector<Message> collect(double t);

  /// collect() into a caller-owned buffer (cleared first; same order).
  /// The per-step engine loop reuses one buffer per actor, so steady-state
  /// message delivery performs no heap allocation.
  void collect_into(double t, std::vector<Message>& out);

  /// Number of messages currently in flight.
  std::size_t in_flight() const { return pending_.size(); }

  /// Statistics: messages offered at transmission instants / dropped.
  std::size_t sent_count() const { return sent_; }
  std::size_t dropped_count() const { return dropped_; }

 private:
  struct InFlight {
    double delivery_time;
    std::uint64_t seq;  ///< monotone enqueue index: FIFO tie-break
    Message msg;
    bool operator>(const InFlight& o) const {
      if (delivery_time != o.delivery_time) {
        return delivery_time > o.delivery_time;
      }
      return seq > o.seq;
    }
  };

  CommConfig config_;
  double next_tx_time_ = 0.0;
  bool in_bad_state_ = false;  ///< Gilbert-Elliott channel state
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>>
      pending_;
  std::uint64_t next_seq_ = 0;
  std::size_t sent_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace cvsafe::comm
