#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "cvsafe/nn/activation.hpp"
#include "cvsafe/nn/fast_math.hpp"
#include "cvsafe/nn/loss.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/trainer.hpp"
#include "cvsafe/util/rng.hpp"

/// \file train_reference.hpp
/// FROZEN copy of the per-layer training path that nn::TrainStep replaced:
/// DenseLayer::forward/backward with their input/pre-activation caches,
/// Mlp::forward/backward, activation_derivative, Matrix::transposed_matmul,
/// hadamard, column_sums and the nn::train loop around them. Kept as the
/// reference side of the training-step tests, which require the step's
/// gradients, updated weights and losses to equal this path's bit for bit.
///
/// Do not route this file through nn::TrainStep or Mlp::forward_into: its
/// value is that it does not share the code under test. Its forward pass
/// is in-order loops written here; its dL/dx calls Matrix::matmul
/// (matmul_into), which nn_matrix_test holds to an in-order reference.

namespace cvsafe::train_ref {

using nn::Activation;
using nn::Dataset;
using nn::DenseLayer;
using nn::Matrix;
using nn::Mlp;

/// Density gate of the exact-zero skip: at least 4096 entries, at least
/// half of them zero.
inline bool mostly_zero(const std::vector<double>& values) {
  if (values.size() < 4096) return false;
  std::size_t zeros = 0;
  for (const double v : values) {
    zeros += (v == 0.0) ? 1 : 0;  // cvsafe-lint: allow(float-compare)
  }
  return zeros * 2 >= values.size();
}

/// f'(z) elementwise, recomputed from the pre-activation z.
inline Matrix activation_derivative(Activation act, const Matrix& z) {
  Matrix out = z;
  switch (act) {
    case Activation::kIdentity:
      for (auto& x : out.data()) x = 1.0;
      break;
    case Activation::kRelu:
      for (auto& x : out.data()) x = x > 0.0 ? 1.0 : 0.0;
      break;
    case Activation::kTanh:
      for (auto& x : out.data()) {
        const double t = nn::fast_tanh(x);
        x = 1.0 - t * t;
      }
      break;
    case Activation::kSigmoid:
      for (auto& x : out.data()) {
        const double s = 1.0 / (1.0 + std::exp(-x));
        x = s * (1.0 - s);
      }
      break;
  }
  return out;
}

/// a^T b (a: k x m, b: k x n), products with a zero of a skipped when a is
/// mostly zero.
inline Matrix transposed_matmul(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  const bool sparse = mostly_zero(a.data());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double av = a(k, i);
      // cvsafe-lint: allow(float-compare) exact-zero sparsity skip
      if (sparse && av == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += av * b(k, j);
    }
  }
  return out;
}

/// Elementwise product.
inline Matrix hadamard(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out = a;
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] *= b.data()[i];
  return out;
}

/// Adds the 1 x cols \p row to every row of \p m (the bias broadcast).
inline void add_to_every_row(Matrix& m, const Matrix& row) {
  assert(row.rows() == 1 && row.cols() == m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) m(i, j) += row(0, j);
  }
}

/// f(z).
inline double activate(Activation act, double z) {
  switch (act) {
    case Activation::kIdentity: return z;
    case Activation::kRelu: return z > 0.0 ? z : 0.0;
    case Activation::kTanh: return nn::fast_tanh(z);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-z));
  }
  return z;
}

/// 1 x cols: each column's sum, rows ascending from 0.0.
inline Matrix column_sums(const Matrix& m) {
  Matrix out(1, m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) out(0, j) += m(i, j);
  }
  return out;
}

/// What DenseLayer cached for its backward pass, and the gradients it
/// accumulated there.
struct LayerCache {
  Matrix input;   // n x in
  Matrix preact;  // n x out (z before activation)
  Matrix grad_z;  // n x out: dL/dz of the last backward pass
  Matrix grad_weights;
  Matrix grad_bias;
};

/// DenseLayer::forward: y = f(x W^T + b), caching x and z. Each z_ij
/// starts from +0.0, adds x_ik * w_jk for k ascending, then b_j.
inline Matrix forward(const DenseLayer& layer, const Matrix& x,
                      LayerCache& cache) {
  assert(x.cols() == layer.in_dim());
  cache.input = x;
  const Matrix& w = layer.weights();
  cache.preact = Matrix(x.rows(), layer.out_dim());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < w.rows(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < x.cols(); ++k) s += x(i, k) * w(j, k);
      cache.preact(i, j) = s;
    }
  }
  add_to_every_row(cache.preact, layer.bias());
  Matrix y = cache.preact;
  for (auto& v : y.data()) v = activate(layer.activation(), v);
  return y;
}

/// DenseLayer::backward: dL/dW and dL/db from dL/dy; returns dL/dx.
inline Matrix backward(const DenseLayer& layer, const Matrix& grad_out,
                       LayerCache& cache) {
  cache.grad_z = hadamard(
      grad_out, activation_derivative(layer.activation(), cache.preact));
  cache.grad_weights = transposed_matmul(cache.grad_z, cache.input);
  cache.grad_bias = column_sums(cache.grad_z);
  return cache.grad_z.matmul(layer.weights());
}

/// Mlp::forward / Mlp::backward with one cache per layer.
struct Backprop {
  std::vector<LayerCache> caches;

  Matrix forward(const Mlp& net, const Matrix& x) {
    caches.resize(net.layer_count());
    Matrix h = x;
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      h = train_ref::forward(net.layer(l), h, caches[l]);
    }
    return h;
  }

  void backward(const Mlp& net, const Matrix& grad_out) {
    Matrix g = grad_out;
    for (std::size_t l = net.layer_count(); l-- > 0;) {
      g = train_ref::backward(net.layer(l), g, caches[l]);
    }
  }

  /// Loss of one batch, leaving every layer's gradients in caches.
  double gradients(const Mlp& net, const Matrix& x, const Matrix& targets,
                   double huber_delta) {
    const Matrix pred = forward(net, x);
    double loss;
    Matrix grad;
    if (huber_delta > 0.0) {
      loss = nn::huber_loss(pred, targets, huber_delta);
      grad = nn::huber_gradient(pred, targets, huber_delta);
    } else {
      loss = nn::mse_loss(pred, targets);
      grad = nn::mse_gradient(pred, targets);
    }
    backward(net, grad);
    return loss;
  }
};

/// nn::evaluate on this file's forward pass.
inline double evaluate(const Mlp& net, const Dataset& data,
                       double huber_delta) {
  const Matrix pred = Backprop{}.forward(net, data.inputs);
  return huber_delta > 0.0 ? nn::huber_loss(pred, data.targets, huber_delta)
                           : nn::mse_loss(pred, data.targets);
}

/// The batch of samples idx[begin, end).
inline Dataset gather(const Dataset& data, const std::vector<std::size_t>& idx,
                      std::size_t begin, std::size_t end) {
  const std::size_t count = end - begin;
  Dataset batch{Matrix(count, data.inputs.cols()),
                Matrix(count, data.targets.cols())};
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t src = idx[begin + i];
    for (std::size_t j = 0; j < data.inputs.cols(); ++j)
      batch.inputs(i, j) = data.inputs(src, j);
    for (std::size_t j = 0; j < data.targets.cols(); ++j)
      batch.targets(i, j) = data.targets(src, j);
  }
  return batch;
}

/// nn::train on the per-layer path.
inline nn::TrainResult train(Mlp& net, const Dataset& data,
                             nn::Optimizer& opt, const nn::TrainConfig& config,
                             util::Rng& rng) {
  assert(data.size() > 0);
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);

  nn::TrainResult result;
  double best_val = std::numeric_limits<double>::infinity();
  std::optional<Mlp> best_net;
  Backprop bp;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.lr_schedule) opt.set_learning_rate(config.lr_schedule(epoch));
    for (std::size_t i = idx.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(idx[i - 1], idx[j]);
    }

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < data.size();
         begin += config.batch_size) {
      const std::size_t end = std::min(begin + config.batch_size, data.size());
      const Dataset batch = gather(data, idx, begin, end);
      const double loss = bp.gradients(net, batch.inputs, batch.targets,
                                       config.huber_delta);
      for (std::size_t l = 0; l < net.layer_count(); ++l) {
        auto& layer = net.mutable_layer(l);
        opt.update(l * 2, layer.mutable_weights(), bp.caches[l].grad_weights);
        opt.update(l * 2 + 1, layer.mutable_bias(), bp.caches[l].grad_bias);
      }
      opt.end_step();
      epoch_loss += loss;
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    result.epoch_losses.push_back(epoch_loss);
    if (config.on_epoch) config.on_epoch(epoch, epoch_loss);

    if (config.validation != nullptr && config.validation->size() > 0) {
      const double val =
          train_ref::evaluate(net, *config.validation, config.huber_delta);
      result.val_losses.push_back(val);
      if (val < best_val) {
        best_val = val;
        best_net = net;
        result.best_epoch = epoch;
      } else if (config.patience > 0 &&
                 epoch - result.best_epoch >= config.patience) {
        result.stopped_early = true;
        break;
      }
    }
  }
  if (best_net) net = std::move(*best_net);
  result.final_loss =
      result.epoch_losses.empty() ? 0.0 : result.epoch_losses.back();
  return result;
}

}  // namespace cvsafe::train_ref
