#pragma once

/// \file dense_kernel.hpp
/// Register-blocked dense-layer tiles (private to src/nn), shared by the
/// fused inference pass (mlp.cpp) and the training step (trainer.cpp),
/// and the density gate of the exact-zero skip (matrix.cpp, trainer.cpp).
///
/// Each output element y_j = f(b_j + sum_k x_k * W_jk) is evaluated in
/// one fixed order, which the tests' in-order loops (nn_fast_math_test,
/// support/train_reference.hpp) spell out element by element:
///  - the accumulator starts at +0.0, not at the first product, so a sum
///    of -0.0 products stays +0.0;
///  - it adds x_k * W^T_kj for k ascending, a rounded multiply and then a
///    rounded add (no FMA: the project builds with -ffp-contract=off);
///  - then it adds b_j, and then it applies the activation to that sum.
/// Every output therefore has the same bits in both ISA clones and at
/// every tile split. A tile of R rows x W output columns is held in
/// registers across the whole k loop, and bias + activation are applied
/// before the tile is stored.
///
/// Without the epilogue (kBiasAct = false) the same tile computes a plain
/// in-order product x * B for a k-major B: the training step's input
/// gradient dL/dx = delta * W runs it with B = W.
///
/// Callers compile these templates inside a CVSAFE_NN_KERNEL function
/// (isa_dispatch.hpp), in a source file built with -fno-trapping-math so
/// the tanh loop vectorizes.

#include <cmath>
#include <cstddef>
#include <vector>

#include "cvsafe/nn/activation.hpp"
#include "cvsafe/nn/fast_math.hpp"
#include "isa_dispatch.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define CVSAFE_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define CVSAFE_ALWAYS_INLINE inline
#endif

namespace cvsafe::nn::kernel {

/// Fraction-of-zeros probe for the sparsity fast path. The exact-zero skip
/// in the accumulation kernels only pays off when a sizeable share of the
/// left operand is zero; on dense NN weight matrices the per-element branch
/// mispredicts and pessimizes the hot loop, so callers gate on this.
inline bool mostly_zero(const std::vector<double>& values) {
  if (values.size() < 4096) return false;  // probe cost dominates small inputs
  std::size_t zeros = 0;
  for (const double v : values) {
    zeros += (v == 0.0) ? 1 : 0;  // cvsafe-lint: allow(float-compare)
  }
  return zeros * 2 >= values.size();
}

/// R rows x W columns of one layer. Row r reads x + r * xs and writes
/// y + r * ys; \p wt and \p b point at the tile's first column of the
/// k-major weights (\p n columns per k row) and of the bias. With
/// kBiasAct = false, \p b and \p act are unused and y = the sums.
template <std::size_t R, std::size_t W, bool kBiasAct>
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
  if constexpr (kBiasAct) {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < W; ++c) acc[r][c] += b[c];
    }
  } else {
    act = Activation::kIdentity;
  }
  // One loop nest per activation (activation.hpp) so the tanh loop
  // vectorizes.
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

/// Widest column tile. Measured in the x86-64-v3 clone on the 4-24-24-1
/// tanh net: one row runs as a chain of dependent adds and tanh
/// evaluations, so a lone row needs 24 columns (six independent add
/// chains per k; a 12-column tile took twice as long). Batches run four
/// rows at a time, which overlaps four rows' chains: 4 x 24 beat 1 x 24 by
/// ~20% and 4 x 12 by ~10% per row of a 53-row batch, although its 24
/// vector accumulators spill.
constexpr std::size_t kTileCols = 24;
constexpr std::size_t kRowTile = 4;

/// R rows of y = f(x Wt + b) (or x Wt without the epilogue), \p n output
/// columns: kTileCols-column tiles, then 8- and 4-column tiles and single
/// columns, so any width works.
template <std::size_t R, bool kBiasAct>
CVSAFE_ALWAYS_INLINE void dense_rows(const double* CVSAFE_RESTRICT x,
                                     std::size_t xs, std::size_t kk,
                                     const double* CVSAFE_RESTRICT wt,
                                     std::size_t n,
                                     const double* CVSAFE_RESTRICT b,
                                     Activation act,
                                     double* CVSAFE_RESTRICT y,
                                     std::size_t ys) {
  // Without the epilogue \p b may be null, so it is never offset.
  const auto bias_at = [b](std::size_t j) { return kBiasAct ? b + j : b; };
  std::size_t j = 0;
  for (; j + kTileCols <= n; j += kTileCols) {
    dense_tile<R, kTileCols, kBiasAct>(x, xs, kk, wt + j, n, bias_at(j), act,
                                       y + j, ys);
  }
  for (; j + 8 <= n; j += 8) {
    dense_tile<R, 8, kBiasAct>(x, xs, kk, wt + j, n, bias_at(j), act, y + j,
                               ys);
  }
  if (j + 4 <= n) {
    dense_tile<R, 4, kBiasAct>(x, xs, kk, wt + j, n, bias_at(j), act, y + j,
                               ys);
    j += 4;
  }
  for (; j < n; ++j) {
    dense_tile<R, 1, kBiasAct>(x, xs, kk, wt + j, n, bias_at(j), act, y + j,
                               ys);
  }
}

/// Every one of \p rows rows, kRowTile at a time, then singly.
template <bool kBiasAct>
CVSAFE_ALWAYS_INLINE void dense_matrix(const double* CVSAFE_RESTRICT x,
                                       std::size_t rows, std::size_t kk,
                                       const double* CVSAFE_RESTRICT wt,
                                       std::size_t n,
                                       const double* CVSAFE_RESTRICT b,
                                       Activation act,
                                       double* CVSAFE_RESTRICT y) {
  std::size_t i = 0;
  for (; i + kRowTile <= rows; i += kRowTile) {
    dense_rows<kRowTile, kBiasAct>(x + i * kk, kk, kk, wt, n, b, act,
                                   y + i * n, n);
  }
  for (; i < rows; ++i) {
    dense_rows<1, kBiasAct>(x + i * kk, kk, kk, wt, n, b, act, y + i * n, n);
  }
}

}  // namespace cvsafe::nn::kernel
