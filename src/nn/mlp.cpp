#include "cvsafe/nn/mlp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cvsafe/nn/fast_math.hpp"
#include "isa_dispatch.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define CVSAFE_RESTRICT __restrict__
#define CVSAFE_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define CVSAFE_RESTRICT
#define CVSAFE_ALWAYS_INLINE inline
#endif

namespace cvsafe::nn {

namespace {

// --- Fused forward pass -------------------------------------------------
//
// forward_rows carries a tile of rows at a time through every layer. Each
// output element y_j = f(b_j + sum_k x_k * W_jk) is evaluated with the
// operations of the per-layer path (matmul_into + bias_activation_inplace),
// in its order:
//  - the accumulator starts at +0.0, not at the first product, so a sum of
//    -0.0 products stays +0.0;
//  - it adds x_k * W^T_kj for k ascending, a rounded multiply and then a
//    rounded add (no FMA: the project builds with -ffp-contract=off);
//  - then it adds b_j, and then it applies the activation to that sum.
// Every output therefore keeps its bits. What changes is where the values
// live: a tile of R rows x W output columns is held in registers across
// the whole k loop, and bias + activation are applied before the tile is
// stored to the row scratch that feeds the next layer.
//
// Tile shapes, measured in the x86-64-v3 clone on the 4-24-24-1 tanh net:
// one row runs as a chain of dependent adds and tanh evaluations, so a
// lone row needs 24 columns (six independent add chains per k; a 12-column
// tile took twice as long). Batches run four rows at a time, which
// overlaps four rows' chains: 4 x 24 beat 1 x 24 by ~20% and 4 x 12 by
// ~10% per row of a 53-row batch, although its 24 vector accumulators
// spill.

constexpr std::size_t kRowTile = 4;
constexpr std::size_t kTileCols = 24;

/// R rows x W columns, from column j0, of one layer. Row r reads
/// x + r * xs and writes y + r * ys; \p wt and \p b point at column j0 of
/// W^T (\p n columns per k row) and of the bias.
template <std::size_t R, std::size_t W>
CVSAFE_ALWAYS_INLINE void dense_tile(const double* CVSAFE_RESTRICT x,
                                     std::size_t xs, std::size_t kk,
                                     const double* CVSAFE_RESTRICT wt,
                                     std::size_t n,
                                     const double* CVSAFE_RESTRICT b,
                                     Activation act,
                                     double* CVSAFE_RESTRICT y,
                                     std::size_t ys) {
  double acc[R][W] = {};  // +0.0
  for (std::size_t k = 0; k < kk; ++k) {
    const double* CVSAFE_RESTRICT w = wt + k * n;
    for (std::size_t r = 0; r < R; ++r) {
      const double xk = x[r * xs + k];
      for (std::size_t c = 0; c < W; ++c) acc[r][c] += xk * w[c];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < W; ++c) acc[r][c] += b[c];
  }
  // The expressions of bias_activation_inplace, one loop nest per
  // activation so the tanh loop vectorizes.
  switch (act) {
    case Activation::kIdentity:
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t c = 0; c < W; ++c) y[r * ys + c] = acc[r][c];
      }
      break;
    case Activation::kRelu:
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t c = 0; c < W; ++c) {
          y[r * ys + c] = acc[r][c] > 0.0 ? acc[r][c] : 0.0;
        }
      }
      break;
    case Activation::kTanh:
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t c = 0; c < W; ++c) {
          y[r * ys + c] = fast_tanh(acc[r][c]);
        }
      }
      break;
    case Activation::kSigmoid:
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t c = 0; c < W; ++c) {
          y[r * ys + c] = 1.0 / (1.0 + std::exp(-acc[r][c]));
        }
      }
      break;
  }
}

/// y = f(x W^T + b) for R rows: kTileCols-column tiles, then 8- and
/// 4-column tiles and single columns, so any width works.
template <std::size_t R>
CVSAFE_ALWAYS_INLINE void dense_rows(const DenseLayer& layer,
                                     const double* CVSAFE_RESTRICT x,
                                     std::size_t xs, double* CVSAFE_RESTRICT y,
                                     std::size_t ys) {
  const std::size_t kk = layer.in_dim();
  const std::size_t n = layer.out_dim();
  const double* wt = layer.weights_t().data().data();
  const double* b = layer.bias().data().data();
  const Activation act = layer.activation();
  std::size_t j = 0;
  for (; j + kTileCols <= n; j += kTileCols) {
    dense_tile<R, kTileCols>(x, xs, kk, wt + j, n, b + j, act, y + j, ys);
  }
  for (; j + 8 <= n; j += 8) {
    dense_tile<R, 8>(x, xs, kk, wt + j, n, b + j, act, y + j, ys);
  }
  if (j + 4 <= n) {
    dense_tile<R, 4>(x, xs, kk, wt + j, n, b + j, act, y + j, ys);
    j += 4;
  }
  for (; j < n; ++j) {
    dense_tile<R, 1>(x, xs, kk, wt + j, n, b + j, act, y + j, ys);
  }
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

/// Scratch width for forward_rows: the widest layer output, or 0 while
/// some layer's W^T cache is stale (then the per-layer path runs).
std::size_t fused_width(std::span<const DenseLayer> layers) {
  std::size_t width = 0;
  for (const DenseLayer& layer : layers) {
    if (!layer.inference_cache_fresh()) return 0;
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

Matrix Mlp::forward(const Matrix& x) {
  Matrix h = x;
  for (auto& layer : layers_) h = layer.forward(h);
  return h;
}

Matrix Mlp::infer(const Matrix& x) const {
  Matrix h = x;
  for (const auto& layer : layers_) h = layer.infer(h);
  return h;
}

std::vector<double> Mlp::predict(const std::vector<double>& x) const {
  assert(x.size() == input_dim());
  const Matrix y = infer(Matrix::row_vector(x));
  return y.data();
}

const Matrix& Mlp::forward_into(const Matrix& x, Workspace& ws) const {
  assert(x.cols() == input_dim());
  if (const std::size_t width = fused_width(layers_)) {
    Matrix& out = ws.layer_out(0);
    assert(&out != &x);
    out.resize(x.rows(), output_dim());
    double* scratch = ws.row_scratch(std::min(x.rows(), kRowTile), width);
    forward_rows(layers_, x.data().data(), x.rows(), out.data().data(),
                 scratch, width);
    return out;
  }
  const Matrix* in = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Matrix& out = ws.layer_out(i);
    layers_[i].infer_into(*in, out);
    in = &out;
  }
  return *in;
}

double Mlp::predict_scalar(std::span<const double> x, Workspace& ws) const {
  assert(x.size() == input_dim());
  assert(output_dim() == 1);
  if (const std::size_t width = fused_width(layers_)) {
    double y = 0.0;
    forward_rows(layers_, x.data(), 1, &y, ws.row_scratch(1, width), width);
    return y;
  }
  Matrix& in = ws.input(1, x.size());
  std::copy(x.begin(), x.end(), in.data().begin());
  return forward_into(in, ws)(0, 0);
}

void Mlp::backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = it->backward(g);
  }
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
