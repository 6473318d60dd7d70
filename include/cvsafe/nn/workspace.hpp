#pragma once

#include <cstddef>
#include <vector>

#include "cvsafe/nn/matrix.hpp"

/// \file workspace.hpp
/// Reusable storage for zero-allocation MLP inference.
///
/// The compound planner queries kappa_n every control step. A Workspace
/// owns the storage Mlp::forward_into and predict_scalar need, so those
/// calls allocate nothing: an input staging matrix for callers that
/// encode raw samples into a batch, the output matrix, and the row
/// scratch through which the fused pass carries a tile of rows'
/// activations from layer to layer. After the first (warm-up) call, an
/// inference of the same or smaller batch size performs no heap
/// allocation at all.
///
/// A Workspace is NOT thread-safe: give each thread (each simulation
/// episode / each planner instance) its own. Buffers grow monotonically to
/// the largest batch seen and are never shrunk.

namespace cvsafe::nn {

class Workspace {
 public:
  Workspace() = default;

  /// The n x output_dim result of Mlp::forward_into.
  Matrix& output() { return output_; }

  /// Staging matrix for encoding raw samples into a batch (rows x dim).
  /// Resized in place; capacity is retained across calls.
  Matrix& input(std::size_t rows, std::size_t dim) {
    input_.resize(rows, dim);
    return input_;
  }

  /// Two adjacent blocks of \p rows x \p width doubles, through which the
  /// fused forward pass carries a tile of rows' hidden activations from
  /// layer to layer.
  double* row_scratch(std::size_t rows, std::size_t width) {
    if (rows_.size() < 2 * rows * width) rows_.resize(2 * rows * width);
    return rows_.data();
  }

 private:
  Matrix output_;
  Matrix input_;
  std::vector<double> rows_;
};

}  // namespace cvsafe::nn
