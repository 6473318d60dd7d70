#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cvsafe/filter/consistency.hpp"
#include "cvsafe/filter/kalman.hpp"
#include "cvsafe/filter/kalman_core.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/util/interval.hpp"
#include "cvsafe/util/linalg.hpp"

/// \file fleet_estimator.hpp
/// Pool-resident SoA Kalman state for the fleet engine.
///
/// A fleet worker keeps thousands of resident episodes; with each episode
/// owning a scalar KalmanFilter, the estimate sweep touches one ~5 KB
/// object per lane and the shard-step becomes cache-residency bound (the
/// pool8k-vs-pool64 regression in BENCH_micro). The FleetEstimator holds
/// the same state as N scalar filters in per-field contiguous arrays —
/// state mean, covariance entries, innovation, NIS, rollback history —
/// and replaces N update()/state_at() calls with two fleet-wide sweeps:
///
///   update_batch()   absorbs every staged sensor reading (the Kalman
///                    measurement sweep);
///   predict_batch()  extrapolates every staged lane to its query time,
///                    caching (x, P) so the subsequent estimate reads are
///                    array lookups.
///
/// Bit-identity contract: every slot evolves exactly as a scalar
/// KalmanFilter fed the same sequence — both stores call the shared
/// kalman_core helpers, the staging just defers WHEN the arithmetic runs,
/// never what it computes (pinned by tests/filter_fleet_test).
///
/// Slots are free-listed: lane compaction in the episode pool swaps
/// *runners*, not estimator storage, so a slot handle stays valid for the
/// lifetime of the episode that acquired it. Each slot carries its
/// episode's obs::Recorder, so rollbacks are recorded exactly as the
/// scalar filter records them.

namespace cvsafe::filter {

/// SoA Kalman lanes with batched predict/update sweeps.
class FleetEstimator {
 public:
  FleetEstimator() = default;

  /// Claims a virgin slot configured with \p config. Every slot of one
  /// pool must share the configuration (fleet pools run one blueprint);
  /// the first acquire adopts it, later acquires contract-check equality.
  std::size_t acquire(const KalmanConfig& config);

  /// Returns \p slot to the free list (state is reset on re-acquire).
  void release(std::size_t slot);

  std::size_t capacity() const { return cap_; }
  std::size_t active() const { return cap_ - free_.size(); }
  const KalmanConfig& config() const { return config_; }

  bool initialized(std::size_t slot) const {
    return initialized_[slot] != 0;
  }
  double last_update_time(std::size_t slot) const { return t_[slot]; }
  const NisMonitor& nis(std::size_t slot) const { return nis_[slot]; }
  double q_scale(std::size_t slot) const { return q_scale_[slot]; }

  /// Innovation of the last measurement update of \p slot (SoA arrays;
  /// diagnostics and sweep tests).
  double innovation_p(std::size_t slot) const { return innov_p_[slot]; }
  double innovation_v(std::size_t slot) const { return innov_v_[slot]; }
  double last_nis(std::size_t slot) const { return last_nis_[slot]; }

  /// Layout-independent snapshot (plausibility gate, extrapolation).
  kalman_core::KalmanView view(std::size_t slot) const {
    return kalman_core::KalmanView{initialized_[slot] != 0, t_[slot],
                                   last_a_[slot], config_.delta_a,
                                   util::Vec2{x0_[slot], x1_[slot]},
                                   util::Mat2{p00_[slot], p01_[slot],
                                              p10_[slot], p11_[slot]}};
  }

  /// Stages one sensor reading for the next update_batch(). At most one
  /// reading per slot per sweep (the sensing period enforces this).
  void stage(std::size_t slot, const sensing::SensorReading& reading);

  /// The measurement sweep: absorbs every staged reading, slot-identical
  /// to KalmanFilter::update on the same sequence.
  void update_batch();

  /// Stages an extrapolation of \p slot to time \p t for predict_batch().
  void stage_predict(std::size_t slot, double t);

  /// The extrapolation sweep: caches (x, P) at the staged query time per
  /// lane; state_at / the interval queries then read the cache when asked
  /// for exactly that time (and recompute on the fly otherwise — the
  /// cache is a locality optimization, never a semantic one).
  void predict_batch();

  /// Attach \p slot's event sink (reset to nullptr on acquire), as
  /// KalmanFilter::set_recorder.
  void set_recorder(std::size_t slot, obs::Recorder* recorder) {
    recorder_[slot] = recorder;
  }

  /// Message rollback, identical to KalmanFilter::correct_with_message —
  /// rollback events included (scalar: rollbacks are rare and replay a
  /// per-slot history ring).
  void correct_with_message(std::size_t slot, double t_k, double p, double v,
                            double a);

  util::Vec2 state_at(std::size_t slot, double t) const;
  util::Interval position_interval(std::size_t slot, double t) const;
  util::Interval velocity_interval(std::size_t slot, double t) const;

 private:
  struct HistoryEntry {
    sensing::SensorReading reading;
    util::Vec2 prior_x;
    util::Mat2 prior_p;
  };

  /// History slab layout is position-major — hist_[pos * cap_ + slot] —
  /// so lanes updating in lockstep write one contiguous run per sweep
  /// instead of cap_ strided ~5 KB-apart ring touches.
  HistoryEntry& hist(std::size_t slot, std::size_t pos) {
    return hist_[pos * cap_ + slot];
  }
  const HistoryEntry& hist_at(std::size_t slot, std::size_t i) const {
    return hist_[((hist_head_[slot] + i) % depth_) * cap_ + slot];
  }
  void history_push(std::size_t slot, const HistoryEntry& entry);
  void grow(std::size_t new_cap);
  void reset_slot(std::size_t slot);
  void absorb(std::size_t slot, const sensing::SensorReading& reading);

  KalmanConfig config_{};
  util::Mat2 r_{};
  std::size_t depth_ = 1;  ///< history ring depth (>= 1, see KalmanFilter)
  std::size_t cap_ = 0;
  bool configured_ = false;

  // Per-slot SoA state (indices parallel across every vector).
  std::vector<double> x0_, x1_;
  std::vector<double> p00_, p01_, p10_, p11_;
  std::vector<double> t_, last_a_, q_scale_, applied_msg_time_;
  std::vector<double> innov_p_, innov_v_, last_nis_;
  std::vector<std::uint8_t> initialized_;
  std::vector<NisMonitor> nis_;
  std::vector<std::size_t> hist_head_, hist_size_;
  std::vector<HistoryEntry> hist_;  ///< depth_ x cap_, position-major
  std::vector<obs::Recorder*> recorder_;

  // Prediction cache written by predict_batch.
  std::vector<std::uint8_t> pr_valid_;
  std::vector<double> pr_t_, pr_x0_, pr_x1_, pr_p00_, pr_p01_, pr_p10_,
      pr_p11_;

  // Sweep staging.
  std::vector<std::size_t> free_;
  std::vector<std::uint32_t> staged_slots_;
  std::vector<sensing::SensorReading> staged_readings_;
  std::vector<std::uint32_t> predict_slots_;
  std::vector<double> predict_t_;
};

}  // namespace cvsafe::filter
