#include "cvsafe/nn/mlp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cvsafe/util/contracts.hpp"
#include "dense_kernel.hpp"
#include "isa_dispatch.hpp"

namespace cvsafe::nn {

namespace {

using kernel::kRowTile;

// --- Fused forward pass -------------------------------------------------
//
// forward_rows carries a tile of rows at a time through every layer with
// the register-blocked tiles of dense_kernel.hpp, in the per-element order
// they document, and a tile's activations go from layer to layer through
// the row scratch. It is the only way an Mlp runs.

/// y = f(x W^T + b) for R rows of one layer, from its W^T cache.
template <std::size_t R>
CVSAFE_ALWAYS_INLINE void dense_rows(const DenseLayer& layer,
                                     const double* CVSAFE_RESTRICT x,
                                     std::size_t xs, double* CVSAFE_RESTRICT y,
                                     std::size_t ys) {
  kernel::dense_rows<R, true>(x, xs, layer.in_dim(),
                              layer.weights_t().data().data(),
                              layer.out_dim(), layer.bias().data().data(),
                              layer.activation(), y, ys);
}

/// R rows through every layer: x and y hold R rows of the input and output
/// widths; the hidden activations alternate between two R x width blocks
/// of \p scratch.
template <std::size_t R>
CVSAFE_ALWAYS_INLINE void forward_tile(std::span<const DenseLayer> layers,
                                       const double* x, double* y,
                                       double* scratch, std::size_t width) {
  const double* src = x;
  std::size_t stride = layers.front().in_dim();
  const std::size_t last = layers.size() - 1;
  for (std::size_t l = 0; l < last; ++l) {
    double* dst = scratch + (l % 2) * R * width;
    dense_rows<R>(layers[l], src, stride, dst, width);
    src = dst;
    stride = width;
  }
  dense_rows<R>(layers[last], src, stride, y, layers.back().out_dim());
}

/// y (rows x output width) = the network applied to x (rows x input
/// width); \p scratch holds 2 * min(rows, kRowTile) * width doubles, width
/// being the widest layer output. Needs every W^T cache fresh.
CVSAFE_NN_KERNEL
void forward_rows(std::span<const DenseLayer> layers, const double* x,
                  std::size_t rows, double* y, double* scratch,
                  std::size_t width) {
  const std::size_t in = layers.front().in_dim();
  const std::size_t out = layers.back().out_dim();
  std::size_t i = 0;
  for (; i + kRowTile <= rows; i += kRowTile) {
    forward_tile<kRowTile>(layers, x + i * in, y + i * out, scratch, width);
  }
  for (; i < rows; ++i) {
    forward_tile<1>(layers, x + i * in, y + i * out, scratch, width);
  }
}

/// Scratch width for forward_rows: the widest layer output. Every layer's
/// W^T cache must be fresh, since forward_rows reads nothing else.
std::size_t fused_width(std::span<const DenseLayer> layers) {
  std::size_t width = 0;
  for (const DenseLayer& layer : layers) {
    CVSAFE_EXPECTS(layer.inference_cache_fresh(),
                   "stale W^T cache: call refresh_inference_cache() after "
                   "mutable_weights()");
    width = std::max(width, layer.out_dim());
  }
  return width;
}

}  // namespace

Mlp::Mlp(const MlpSpec& spec, util::Rng& rng) {
  assert(spec.layer_sizes.size() >= 2);
  layers_.reserve(spec.layer_sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < spec.layer_sizes.size(); ++i) {
    const bool last = (i + 2 == spec.layer_sizes.size());
    layers_.emplace_back(
        spec.layer_sizes[i], spec.layer_sizes[i + 1],
        last ? spec.output_activation : spec.hidden_activation, rng);
  }
}

Mlp::Mlp(std::vector<DenseLayer> layers) : layers_(std::move(layers)) {
  assert(!layers_.empty());
}

const Matrix& Mlp::forward_into(const Matrix& x, Workspace& ws) const {
  assert(x.cols() == input_dim());
  const std::size_t width = fused_width(layers_);
  Matrix& out = ws.output();
  assert(&out != &x);
  out.resize(x.rows(), output_dim());
  double* scratch = ws.row_scratch(std::min(x.rows(), kRowTile), width);
  forward_rows(layers_, x.data().data(), x.rows(), out.data().data(), scratch,
               width);
  return out;
}

double Mlp::predict_scalar(std::span<const double> x, Workspace& ws) const {
  assert(x.size() == input_dim());
  assert(output_dim() == 1);
  const std::size_t width = fused_width(layers_);
  double y = 0.0;
  forward_rows(layers_, x.data(), 1, &y, ws.row_scratch(1, width), width);
  return y;
}

void Mlp::refresh_inference_cache() {
  for (auto& layer : layers_) layer.refresh_inference_cache();
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    n += layer.weights().size() + layer.bias().size();
  }
  return n;
}

}  // namespace cvsafe::nn
