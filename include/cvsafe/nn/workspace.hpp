#pragma once

#include <cstddef>
#include <vector>

#include "cvsafe/nn/matrix.hpp"

/// \file workspace.hpp
/// Reusable activation storage for zero-allocation MLP inference.
///
/// The compound planner queries kappa_n every control step; with the plain
/// Mlp::infer path each query heap-allocates one matrix per layer plus the
/// input staging vector. A Workspace owns the storage Mlp::forward_into
/// needs instead: an input staging matrix, two ping-pong matrices for the
/// outputs, and the row scratch through which the fused pass carries a
/// tile of rows' activations from layer to layer. After the first
/// (warm-up) call, an inference of the same or smaller batch size performs
/// no heap allocation at all.
///
/// A Workspace is NOT thread-safe: give each thread (each simulation
/// episode / each planner instance) its own. Buffers grow monotonically to
/// the largest batch seen and are never shrunk.

namespace cvsafe::nn {

class Workspace {
 public:
  Workspace() = default;

  /// Ping-pong buffer for layer \p i's output (layers alternate between
  /// the two underlying matrices, so the input of layer i — buffer i-1 —
  /// is never overwritten while layer i writes).
  Matrix& layer_out(std::size_t i) { return bufs_[i % 2]; }

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

  /// Pre-sizes every buffer for a net with the given maximum layer width
  /// and batch size, so even the first forward_into call is allocation-free.
  void reserve(std::size_t max_rows, std::size_t max_width) {
    bufs_[0].resize(max_rows, max_width);
    bufs_[1].resize(max_rows, max_width);
    input_.resize(max_rows, max_width);
    row_scratch(max_rows, max_width);
  }

 private:
  Matrix bufs_[2];
  Matrix input_;
  std::vector<double> rows_;
};

}  // namespace cvsafe::nn
