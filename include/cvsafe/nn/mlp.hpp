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

  /// Batch forward pass (allocating; see forward_into).
  Matrix infer(const Matrix& x) const;

  /// Single-sample inference convenience.
  std::vector<double> predict(const std::vector<double>& x) const;

  /// Batch inference into workspace storage. While every layer's W^T
  /// cache is fresh, one fused kernel carries each row of \p x through
  /// every layer (src/nn/mlp.cpp); otherwise each layer runs
  /// DenseLayer::infer_into in turn. Returns a reference to the workspace
  /// buffer holding the n x output_dim result (valid until the workspace
  /// is next used). Bit-identical to infer(); performs no heap allocation
  /// once the workspace is warm. \p x must not be a workspace buffer
  /// other than input().
  const Matrix& forward_into(const Matrix& x, Workspace& ws) const;

  /// Zero-allocation single-sample inference for 1-output networks
  /// (the planner hot path): the fused kernel on \p x itself, one row.
  /// \p x.size() must equal input_dim().
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
