#pragma once

#include <span>
#include <vector>

#include "cvsafe/nn/layer.hpp"
#include "cvsafe/nn/workspace.hpp"

/// \file mlp.hpp
/// Multi-layer perceptron: the network architecture behind the paper's
/// NN-based planners (5 scalar inputs -> hidden layers -> 1 acceleration).

namespace cvsafe::nn {

/// Architecture description: layer widths and hidden activation.
struct MlpSpec {
  std::vector<std::size_t> layer_sizes;  ///< [in, hidden..., out]
  Activation hidden_activation = Activation::kTanh;
  Activation output_activation = Activation::kIdentity;
};

/// Feed-forward network of dense layers.
class Mlp {
 public:
  /// Random (Glorot) initialization per \p spec.
  Mlp(const MlpSpec& spec, util::Rng& rng);

  /// Assembles from explicit layers (deserialization).
  explicit Mlp(std::vector<DenseLayer> layers);

  std::size_t input_dim() const { return layers_.front().in_dim(); }
  std::size_t output_dim() const { return layers_.back().out_dim(); }
  std::size_t layer_count() const { return layers_.size(); }
  const DenseLayer& layer(std::size_t i) const { return layers_[i]; }
  DenseLayer& mutable_layer(std::size_t i) { return layers_[i]; }

  /// Batch inference: one fused kernel carries each row of \p x through
  /// every layer (src/nn/mlp.cpp), the only forward pass an Mlp has.
  /// Every layer's W^T cache must be fresh (a contract): after
  /// mutable_weights(), call refresh_inference_cache() first. Returns a
  /// reference to the workspace buffer holding the n x output_dim result
  /// (valid until the workspace is next used); performs no heap allocation
  /// once the workspace is warm. \p x must not be ws.output().
  const Matrix& forward_into(const Matrix& x, Workspace& ws) const;

  /// Single-sample inference for 1-output networks (the planner hot
  /// path): the same kernel on \p x itself, one row, with the same bits
  /// as that row of forward_into and the same contract. \p x.size() must
  /// equal input_dim().
  double predict_scalar(std::span<const double> x, Workspace& ws) const;

  /// Total number of trainable parameters.
  std::size_t parameter_count() const;

  /// Rebuilds every layer's W^T cache after in-place weight mutation.
  /// Single-threaded use only.
  void refresh_inference_cache();

 private:
  std::vector<DenseLayer> layers_;
};

}  // namespace cvsafe::nn
