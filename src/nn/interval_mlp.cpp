#include "cvsafe/nn/interval_mlp.hpp"

#include <algorithm>

#include "cvsafe/nn/fast_math.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/rounded_interval.hpp"

// This translation unit is compiled with -ffp-contract=off (see
// src/nn/CMakeLists.txt): a fused multiply-add applied across a
// nextafter boundary would not change soundness, but banning contraction
// outright keeps every certified endpoint bit-identical across compilers
// and optimization levels, which the golden-certificate determinism gate
// relies on.

namespace cvsafe::nn {

using util::Interval;
namespace rd = util::rounded;

Interval fast_tanh_enclosure(const Interval& z) {
  if (z.empty()) return Interval::empty_interval();
  const double t_lo = fast_tanh(z.lo);
  const double t_hi = fast_tanh(z.hi);
  // fast_tanh is within the validated ulp budget of the (monotone) exact
  // tanh but is not itself proven monotone; order the endpoint values
  // before widening.
  const double lo = std::min(t_lo, t_hi);
  const double hi = std::max(t_lo, t_hi);
  return Interval{std::max(-1.0, rd::sub_down(lo, kTanhEnclosureMargin)),
                  std::min(1.0, rd::add_up(hi, kTanhEnclosureMargin))};
}

Interval activation_enclosure(Activation act, const Interval& z) {
  if (z.empty()) return Interval::empty_interval();
  switch (act) {
    case Activation::kIdentity:
      return z;
    case Activation::kRelu:
      // Exact: max(0, x) is monotone and evaluated without rounding.
      return Interval{std::max(0.0, z.lo), std::max(0.0, z.hi)};
    case Activation::kTanh:
      return fast_tanh_enclosure(z);
    case Activation::kSigmoid:
      break;
  }
  CVSAFE_EXPECTS(false, "no validated inclusion function for sigmoid");
  return Interval::empty_interval();
}

void interval_affine(const DenseLayer& layer, std::span<const Interval> in,
                     std::span<Interval> out) {
  CVSAFE_EXPECTS(in.size() == layer.in_dim(),
                 "interval_affine input width mismatch");
  CVSAFE_EXPECTS(out.size() == layer.out_dim(),
                 "interval_affine output width mismatch");
  const Matrix& w = layer.weights();  // out x in, row-major
  const Matrix& b = layer.bias();     // 1 x out
  const std::size_t out_dim = layer.out_dim();
  const std::size_t in_dim = layer.in_dim();
  for (std::size_t j = 0; j < out_dim; ++j) {
    // Directed dot product, input index ascending from 0 — the order of
    // the one concrete kernel, the fused forward pass's dense tiles
    // (src/nn/dense_kernel.hpp) behind forward_into/predict_scalar, so the
    // concrete partial sums stay bracketed op for op.
    Interval acc{0.0, 0.0};
    for (std::size_t k = 0; k < in_dim; ++k) {
      acc = rd::add(acc, rd::scale(in[k], w(j, k)));
    }
    out[j] = activation_enclosure(layer.activation(),
                                  rd::add(acc, Interval::point(b(0, j))));
  }
}

std::span<const Interval> interval_forward(const Mlp& net,
                                           std::span<const Interval> x,
                                           IntervalWorkspace& ws) {
  CVSAFE_EXPECTS(x.size() == net.input_dim(),
                 "interval_forward input width mismatch");
  std::span<const Interval> cur = x;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const DenseLayer& layer = net.layer(i);
    auto& out = ws.layer_out(i, layer.out_dim());
    interval_affine(layer, cur, out);
    cur = out;
  }
  return cur;
}

Interval interval_predict_scalar(const Mlp& net, std::span<const Interval> x,
                                 IntervalWorkspace& ws) {
  CVSAFE_EXPECTS(net.output_dim() == 1,
                 "interval_predict_scalar needs a 1-output network");
  return interval_forward(net, x, ws)[0];
}

}  // namespace cvsafe::nn
