#pragma once

#include "cvsafe/nn/activation.hpp"
#include "cvsafe/nn/matrix.hpp"

/// \file layer.hpp
/// Fully connected layer with activation and cached backpropagation state.

namespace cvsafe::nn {

/// Dense layer: y = f(x W^T + b), with W of shape (out x in).
class DenseLayer {
 public:
  /// Glorot-initialized layer.
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation act,
             util::Rng& rng);

  /// Layer with explicit parameters (deserialization / tests).
  DenseLayer(Matrix weights, Matrix bias, Activation act);

  std::size_t in_dim() const { return weights_.cols(); }
  std::size_t out_dim() const { return weights_.rows(); }
  Activation activation() const { return act_; }

  const Matrix& weights() const { return weights_; }
  const Matrix& bias() const { return bias_; }
  /// Mutable access marks the inference transpose cache stale; call
  /// refresh_inference_cache() after the last mutation to restore the
  /// fused Mlp::forward_into pass (results are identical either way).
  Matrix& mutable_weights() {
    wt_dirty_ = true;
    return weights_;
  }
  Matrix& mutable_bias() { return bias_; }

  /// W^T (in x out): the inference-layout copy of the weights that the
  /// fused forward pass streams one k row at a time. Only meaningful while
  /// inference_cache_fresh().
  const Matrix& weights_t() const { return weights_t_; }

  /// False from mutable_weights() until the next refresh_inference_cache().
  bool inference_cache_fresh() const { return !wt_dirty_; }

  /// Rebuilds the cached W^T. Not thread-safe against concurrent
  /// inference; meant for the (single-threaded) end of a training run.
  void refresh_inference_cache();

  /// Forward pass on a batch (n x in), caching inputs for backward().
  Matrix forward(const Matrix& x);

  /// Forward pass without caching (inference).
  Matrix infer(const Matrix& x) const;

  /// Forward pass writing into caller-provided storage (no allocation once
  /// \p out capacity is warm). Bit-identical to infer(). Reads W, not the
  /// W^T cache, so it is exact mid-training; Mlp::forward_into runs it only
  /// while some layer's cache is stale. \p out must not alias \p x.
  void infer_into(const Matrix& x, Matrix& out) const;

  /// Backward pass: \p grad_out is dL/dy (n x out) from the next layer.
  /// Accumulates dL/dW and dL/db internally and returns dL/dx (n x in).
  /// Must follow a forward() call on the same batch.
  Matrix backward(const Matrix& grad_out);

  /// Gradients accumulated by the last backward() call.
  const Matrix& weight_grad() const { return grad_weights_; }
  const Matrix& bias_grad() const { return grad_bias_; }

 private:
  Matrix weights_;    // out x in
  Matrix weights_t_;  // in x out: inference-layout copy; lets the fused
                      // forward pass keep a row's outputs in registers
                      // across the k loop (j-contiguous, in-order sums)
  bool wt_dirty_ = false;
  Matrix bias_;  // 1 x out
  Activation act_;

  // Cached forward state.
  Matrix input_;  // n x in
  Matrix preact_; // n x out (z before activation)

  Matrix grad_weights_;
  Matrix grad_bias_;
};

}  // namespace cvsafe::nn
