#pragma once

#include "cvsafe/nn/activation.hpp"
#include "cvsafe/nn/matrix.hpp"

/// \file layer.hpp
/// Fully connected layer with activation. Training differentiates it
/// through nn::TrainStep (trainer.hpp).

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
  /// refresh_inference_cache() after the last mutation: until then
  /// Mlp::forward_into and predict_scalar fail their contract.
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

  /// Rebuilds the cached W^T in place (no allocation once sized); the
  /// training step runs it after every update, since its forward pass
  /// reads W^T. Not thread-safe against concurrent inference.
  void refresh_inference_cache();

 private:
  Matrix weights_;    // out x in
  Matrix weights_t_;  // in x out: inference-layout copy; lets the fused
                      // forward pass keep a row's outputs in registers
                      // across the k loop (j-contiguous, in-order sums)
  bool wt_dirty_ = false;
  Matrix bias_;  // 1 x out
  Activation act_;
};

}  // namespace cvsafe::nn
