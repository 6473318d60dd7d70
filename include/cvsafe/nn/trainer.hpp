#pragma once

#include <functional>
#include <vector>

#include "cvsafe/nn/loss.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/nn/optimizer.hpp"

/// \file trainer.hpp
/// Minibatch supervised training: one allocation-free training step, and
/// the loop that runs it over shuffled batches.

namespace cvsafe::nn {

/// Supervised dataset: one row per sample.
struct Dataset {
  Matrix inputs;   ///< n x in
  Matrix targets;  ///< n x out

  std::size_t size() const { return inputs.rows(); }

  /// Splits off the last `fraction` of samples as a validation set.
  std::pair<Dataset, Dataset> split(double fraction) const;
};

/// Training hyperparameters.
struct TrainConfig {
  std::size_t epochs = 100;
  std::size_t batch_size = 64;
  double huber_delta = 0.0;  ///< > 0: Huber loss, otherwise MSE

  /// Optional per-epoch callback (epoch index, training loss).
  std::function<void(std::size_t, double)> on_epoch;

  /// Optional learning-rate schedule applied at the start of each epoch
  /// (see schedule.hpp for factories).
  std::function<double(std::size_t)> lr_schedule;

  /// Optional validation set enabling early stopping: training stops
  /// after `patience` epochs without a new best validation loss and the
  /// best-epoch weights are restored. patience = 0 disables stopping but
  /// still records validation losses (and restores the best weights).
  const Dataset* validation = nullptr;
  std::size_t patience = 0;
};

/// Result of a training run.
struct TrainResult {
  std::vector<double> epoch_losses;  ///< mean training loss per epoch
  std::vector<double> val_losses;    ///< per epoch (when validation set)
  double final_loss = 0.0;
  std::size_t best_epoch = 0;        ///< epoch of the best validation loss
  bool stopped_early = false;
};

/// One training step of an Mlp: the forward pass keeping every layer's
/// activation, the loss and its gradient, the backward pass, and the
/// optimizer update. The step owns its storage and allocates nothing once
/// it has seen the largest batch (Optimizer::update allocates its state on
/// a key's first call).
///
/// Every element is computed with the operations, in the order, of the
/// per-layer reference path (tests/support/train_reference.hpp), so a
/// trained model keeps its bytes:
///  - forward: z_j = 0.0 + x_k * W_jk for k ascending (no FMA), then + b_j,
///    then the activation (the fused inference tiles, reading W^T);
///  - loss gradient: MSE (pred - target) * (2 / size); Huber d or
///    copysign(delta, d), then / size;
///  - local gradient: delta = g * f', f' taken from the stored activation y
///    (tanh 1 - y * y, ReLU y > 0, sigmoid y * (1 - y), identity 1);
///  - dL/dW_ij = 0.0 + delta_ki * x_kj over batch rows k ascending, dL/db_j
///    the rows' sum in ascending order, and dL/dx_ij = 0.0 + delta_ik * W_kj
///    for k ascending (skipped for the first layer), both with the
///    density-gated exact-zero skip of matmul_into.
class TrainStep {
 public:
  /// Storage for \p net's layers, sized by the first batch.
  explicit TrainStep(const Mlp& net);

  /// Forward pass, loss and backward pass of \p net on the batch (\p x,
  /// \p targets): returns the batch's mean loss (Huber when \p huber_delta
  /// > 0, otherwise MSE) and leaves every layer's dL/dW and dL/db in
  /// weight_grad() and bias_grad(). Refreshes a stale W^T cache first.
  double gradients(Mlp& net, const Matrix& x, const Matrix& targets,
                   double huber_delta);

  /// gradients(), then opt.update on layer l's weights (key 2l) and bias
  /// (key 2l + 1) for every l, opt.end_step() and a W^T refresh: one step
  /// of train(). Returns the batch loss.
  double update(Mlp& net, const Matrix& x, const Matrix& targets,
                double huber_delta, Optimizer& opt);

  /// dL/dW (out x in) and dL/db (1 x out) of layer \p l from the last
  /// gradients() call.
  const Matrix& weight_grad(std::size_t l) const { return grad_w_[l]; }
  const Matrix& bias_grad(std::size_t l) const { return grad_b_[l]; }

 private:
  std::vector<Matrix> acts_;    // layer l's activation y_l, rows x out_l
  std::vector<Matrix> grad_w_;  // dL/dW_l
  std::vector<Matrix> grad_b_;  // dL/db_l
  Matrix grad_;                 // dL/dy of the layer being differentiated
  Matrix delta_;                // its local gradient dL/dz
};

/// Trains \p net on \p data with \p opt, one TrainStep per batch.
/// Batches are reshuffled each epoch using \p rng, so results are
/// deterministic given the seed. Leaves every W^T cache of a trained net
/// fresh, as Mlp::forward_into requires.
TrainResult train(Mlp& net, const Dataset& data, Optimizer& opt,
                  const TrainConfig& config, util::Rng& rng);

/// Mean loss of \p net on \p data without updating parameters, from
/// Mlp::forward_into (every W^T cache must be fresh).
double evaluate(const Mlp& net, const Dataset& data, double huber_delta = 0.0);

}  // namespace cvsafe::nn
