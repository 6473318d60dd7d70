#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/util/interval.hpp"

/// \file interval_mlp.hpp
/// Interval (inclusion-function) forward pass through an Mlp.
///
/// Given an axis-aligned box of inputs, the pass propagates one interval
/// per neuron through every layer using the outward-rounded ops of
/// util/rounded_interval.hpp, producing an interval per output that is a
/// *sound enclosure* of
///
///   (a) the real-arithmetic network image of the box, and
///   (b) every concrete floating-point `forward_into`/`predict_scalar`
///       evaluation of this binary at any point of the box
///
/// — (b) because the interval affine kernel accumulates over the input
/// index in the same ascending order as the one concrete kernel, so the
/// directed partial sums bracket the round-to-nearest (or fused) partial
/// sums step by step, and the activation enclosures carry a validated
/// error margin over both `tanh` and `fast_tanh` (nn_interval_mlp_test.cpp
/// pins the margin with dense sweeps).
///
/// Supported activations: identity, ReLU (exact inclusion functions) and
/// tanh (fast_tanh-based enclosure). Sigmoid has no validated inclusion
/// function here and is rejected by contract.
///
/// Like the Workspace of mlp.hpp, an IntervalWorkspace makes the pass
/// allocation-free: it owns two ping-pong interval buffers that grow to
/// the widest layer once and are reused across calls (the branch-and-bound
/// certifier evaluates millions of boxes).

namespace cvsafe::nn {

/// Reusable per-thread storage for interval_forward. NOT thread-safe:
/// give each verifier worker its own.
class IntervalWorkspace {
 public:
  IntervalWorkspace() = default;

  /// Ping-pong buffer for layer \p i's output enclosure, resized to
  /// \p width (capacity retained across calls).
  std::vector<util::Interval>& layer_out(std::size_t i, std::size_t width) {
    auto& buf = bufs_[i % 2];
    buf.resize(width);
    return buf;
  }

  /// Pre-sizes both buffers so even the first pass is allocation-free.
  void reserve(std::size_t max_width) {
    bufs_[0].reserve(max_width);
    bufs_[1].reserve(max_width);
  }

 private:
  std::vector<util::Interval> bufs_[2];
};

/// Absolute error margin of the tanh enclosure: 2^-48. The validated
/// budget is |fast_tanh - tanh| <= 4 ulp (nn_fast_math_test.cpp), twice
/// (once per endpoint) at magnitude <= 1 where one ulp is <= 2^-52 —
/// i.e. a worst case of 8 * 2^-52 = 2^-49; the margin doubles it.
inline constexpr double kTanhEnclosureMargin = 3.552713678800501e-15;

/// Sound enclosure of { tanh(x) : x in [z] } and of every fast_tanh
/// floating-point evaluation on [z]: the fast_tanh endpoint values,
/// widened outward by kTanhEnclosureMargin and clamped to [-1, 1].
util::Interval fast_tanh_enclosure(const util::Interval& z);

/// Inclusion function of one activation (identity/relu exact, tanh via
/// fast_tanh_enclosure; sigmoid rejected by contract).
util::Interval activation_enclosure(Activation act, const util::Interval& z);

/// Enclosure of one dense layer: per output j, the directed-rounding dot
/// product over \p in (ascending input index, matching the concrete
/// kernels) plus bias, through the activation enclosure.
/// \p in/\p out sizes must match the layer dimensions.
void interval_affine(const DenseLayer& layer,
                     std::span<const util::Interval> in,
                     std::span<util::Interval> out);

/// Full interval forward pass; returns the output-layer enclosure (one
/// interval per output neuron), valid until the workspace is next used.
/// \p x.size() must equal net.input_dim().
std::span<const util::Interval> interval_forward(const Mlp& net,
                                                 std::span<const util::Interval> x,
                                                 IntervalWorkspace& ws);

/// Single-output convenience (the planner-network shape).
util::Interval interval_predict_scalar(const Mlp& net,
                                       std::span<const util::Interval> x,
                                       IntervalWorkspace& ws);

}  // namespace cvsafe::nn
