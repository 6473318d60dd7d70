#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cvsafe/core/planner.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/scenario/world.hpp"
#include "cvsafe/util/interval.hpp"

/// \file nn_planner.hpp
/// The NN-based planner kappa_n for the left-turn case study.
///
/// Input encoding. The paper's planner consumes
/// (t, p_0, v_0, tau_1,min, tau_1,max); since the dynamics are
/// time-invariant, we feed the windows *relative* to the current time,
/// giving the 4-vector (p_0, v_0, tau_1,min - t, tau_1,max - t), each
/// scaled to roughly unit range. An empty window (oncoming vehicle has
/// passed) is encoded by the sentinel relative time -2 s for both entries.

namespace cvsafe::planners {

/// Fixed input normalization of the left-turn planner network.
struct InputEncoding {
  double p_scale = 30.0;   ///< position divisor
  double v_scale = 15.0;   ///< velocity divisor
  double w_scale = 10.0;   ///< window-time divisor
  double w_min = -2.0;     ///< clamp / sentinel for relative window times
  double w_max = 30.0;     ///< clamp for relative window times

  /// Encodes one NN input vector.
  std::vector<double> encode(double t, double p0, double v0,
                             const util::Interval& tau1) const;

  /// Encodes into caller-provided storage (\p out.size() == dim());
  /// allocation-free variant for the per-control-step hot path.
  void encode_into(double t, double p0, double v0, const util::Interval& tau1,
                   std::span<double> out) const;

  /// Input dimensionality (4).
  static constexpr std::size_t dim() { return 4; }
};

/// kappa_n: wraps a trained MLP as a PlannerBase.
class NnPlanner final : public core::PlannerBase<scenario::LeftTurnWorld> {
 public:
  NnPlanner(std::shared_ptr<const nn::Mlp> net, InputEncoding encoding,
            std::string name);

  /// Runs the network on (ego state, NN-facing window) and returns the
  /// predicted acceleration (clamped downstream by the dynamics).
  /// Allocation-free after the first call (reuses an internal workspace).
  double plan(const scenario::LeftTurnWorld& world) override;

  /// Evaluates kappa_n for \p worlds in one matmul per layer, writing one
  /// acceleration per world into \p out (sizes must match). Amortizes the
  /// weight-matrix traffic across the batch; bit-identical to calling
  /// plan() per world.
  void plan_batch(std::span<const scenario::LeftTurnWorld> worlds,
                  std::span<double> out);

  std::string_view name() const override { return name_; }

  const nn::Mlp& network() const { return *net_; }
  const InputEncoding& encoding() const { return encoding_; }

 private:
  std::shared_ptr<const nn::Mlp> net_;
  InputEncoding encoding_;
  std::string name_;
  nn::Workspace workspace_;  ///< per-planner scratch; planners are
                             ///< per-episode objects, never shared across
                             ///< threads (each left-turn episode
                             ///< builds its own kappa_n)
};

}  // namespace cvsafe::planners
