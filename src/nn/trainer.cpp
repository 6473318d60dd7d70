#include "cvsafe/nn/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "dense_kernel.hpp"
#include "isa_dispatch.hpp"

namespace cvsafe::nn {

std::pair<Dataset, Dataset> Dataset::split(double fraction) const {
  assert(fraction >= 0.0 && fraction <= 1.0);
  const std::size_t n = size();
  const auto n_val = static_cast<std::size_t>(
      static_cast<double>(n) * fraction);
  const std::size_t n_train = n - n_val;
  const std::size_t in = inputs.cols();
  const std::size_t out = targets.cols();

  auto take = [&](std::size_t begin, std::size_t count) {
    Dataset d{Matrix(count, in), Matrix(count, out)};
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = 0; j < in; ++j)
        d.inputs(i, j) = inputs(begin + i, j);
      for (std::size_t j = 0; j < out; ++j)
        d.targets(i, j) = targets(begin + i, j);
    }
    return d;
  };
  return {take(0, n_train), take(n_train, n_val)};
}

namespace {

using kernel::dense_matrix;

/// y = f(x W^T + b) for every row of \p x, from the layer's W^T cache.
CVSAFE_NN_KERNEL
void forward_layer(const DenseLayer& layer, const Matrix& x, Matrix& y) {
  assert(x.cols() == layer.in_dim());
  y.resize(x.rows(), layer.out_dim());
  dense_matrix<true>(x.data().data(), x.rows(), layer.in_dim(),
                     layer.weights_t().data().data(), layer.out_dim(),
                     layer.bias().data().data(), layer.activation(),
                     y.data().data());
}

/// g = dL/dpred; returns the mean loss. The expressions of mse_loss /
/// mse_gradient and huber_loss / huber_gradient (loss.cpp), fused.
CVSAFE_NN_KERNEL
double loss_gradient(const Matrix& pred, const Matrix& target,
                     double huber_delta, Matrix& g) {
  assert(pred.rows() == target.rows() && pred.cols() == target.cols());
  g.resize(pred.rows(), pred.cols());
  const double* CVSAFE_RESTRICT p = pred.data().data();
  const double* CVSAFE_RESTRICT t = target.data().data();
  double* CVSAFE_RESTRICT gp = g.data().data();
  const std::size_t size = pred.size();
  const auto n = static_cast<double>(size);
  double s = 0.0;
  if (huber_delta > 0.0) {
    const double delta = huber_delta;
    for (std::size_t i = 0; i < size; ++i) {
      const double d = p[i] - t[i];
      const double ad = std::abs(d);
      s += ad <= delta ? 0.5 * ad * ad : delta * (ad - 0.5 * delta);
      gp[i] = (ad <= delta ? d : std::copysign(delta, d)) / n;
    }
  } else {
    const double scale = 2.0 / n;
    for (std::size_t i = 0; i < size; ++i) {
      const double d = p[i] - t[i];
      s += d * d;
      gp[i] = d * scale;
    }
  }
  return s / n;
}

/// delta = g * f', with f' from the stored activation \p y (the bits
/// f'(z) recomputed from the pre-activation would give), and \p db the
/// column sums of delta, rows ascending from 0.0.
CVSAFE_NN_KERNEL
void local_gradient(Activation act, const Matrix& g, const Matrix& y,
                    Matrix& delta, Matrix& db) {
  assert(g.rows() == y.rows() && g.cols() == y.cols());
  const std::size_t rows = y.rows();
  const std::size_t cols = y.cols();
  delta.resize(rows, cols);
  db.resize(1, cols);
  const double* CVSAFE_RESTRICT gp = g.data().data();
  const double* CVSAFE_RESTRICT yp = y.data().data();
  double* CVSAFE_RESTRICT dp = delta.data().data();
  double* CVSAFE_RESTRICT bp = db.data().data();
  std::fill(bp, bp + cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* CVSAFE_RESTRICT gr = gp + i * cols;
    const double* CVSAFE_RESTRICT yr = yp + i * cols;
    double* CVSAFE_RESTRICT dr = dp + i * cols;
    switch (act) {
      case Activation::kIdentity:
        for (std::size_t j = 0; j < cols; ++j) dr[j] = gr[j] * 1.0;
        break;
      case Activation::kRelu:
        for (std::size_t j = 0; j < cols; ++j) {
          dr[j] = gr[j] * (yr[j] > 0.0 ? 1.0 : 0.0);
        }
        break;
      case Activation::kTanh:
        for (std::size_t j = 0; j < cols; ++j) {
          dr[j] = gr[j] * (1.0 - yr[j] * yr[j]);
        }
        break;
      case Activation::kSigmoid:
        for (std::size_t j = 0; j < cols; ++j) {
          dr[j] = gr[j] * (yr[j] * (1.0 - yr[j]));
        }
        break;
    }
    for (std::size_t j = 0; j < cols; ++j) bp[j] += dr[j];
  }
}

/// dx = delta W (rows x in): the register tiles of the forward pass over W
/// itself, without bias or activation; matmul_into's exact-zero skip when
/// delta is mostly zero.
CVSAFE_NN_KERNEL
void input_gradient(const Matrix& delta, const Matrix& w, Matrix& dx) {
  assert(delta.cols() == w.rows());
  if (kernel::mostly_zero(delta.data())) {
    matmul_into(delta, w, dx);
    return;
  }
  dx.resize(delta.rows(), w.cols());
  dense_matrix<false>(delta.data().data(), delta.rows(), w.rows(),
                      w.data().data(), w.cols(), nullptr,
                      Activation::kIdentity, dx.data().data());
}

/// Copies the samples idx[begin, end) into \p x and \p t, reusing their
/// storage.
void gather(const Dataset& data, const std::vector<std::size_t>& idx,
            std::size_t begin, std::size_t end, Matrix& x, Matrix& t) {
  const std::size_t count = end - begin;
  const std::size_t in = data.inputs.cols();
  const std::size_t out = data.targets.cols();
  x.resize(count, in);
  t.resize(count, out);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t src = idx[begin + i];
    std::copy_n(data.inputs.data().data() + src * in, in,
                x.data().data() + i * in);
    std::copy_n(data.targets.data().data() + src * out, out,
                t.data().data() + i * out);
  }
}

}  // namespace

TrainStep::TrainStep(const Mlp& net)
    : acts_(net.layer_count()),
      grad_w_(net.layer_count()),
      grad_b_(net.layer_count()) {}

double TrainStep::gradients(Mlp& net, const Matrix& x, const Matrix& targets,
                            double huber_delta) {
  const std::size_t layers = net.layer_count();
  assert(layers == acts_.size());
  assert(x.cols() == net.input_dim() && x.rows() == targets.rows());
  for (std::size_t l = 0; l < layers; ++l) {
    if (!net.layer(l).inference_cache_fresh()) {
      net.refresh_inference_cache();
      break;
    }
  }
  const Matrix* in = &x;
  for (std::size_t l = 0; l < layers; ++l) {
    forward_layer(net.layer(l), *in, acts_[l]);
    in = &acts_[l];
  }
  const double loss = loss_gradient(acts_.back(), targets, huber_delta, grad_);
  for (std::size_t l = layers; l-- > 0;) {
    const DenseLayer& layer = net.layer(l);
    local_gradient(layer.activation(), grad_, acts_[l], delta_, grad_b_[l]);
    transposed_matmul_into(delta_, l == 0 ? x : acts_[l - 1], grad_w_[l]);
    if (l > 0) input_gradient(delta_, layer.weights(), grad_);
  }
  return loss;
}

double TrainStep::update(Mlp& net, const Matrix& x, const Matrix& targets,
                         double huber_delta, Optimizer& opt) {
  const double loss = gradients(net, x, targets, huber_delta);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    DenseLayer& layer = net.mutable_layer(l);
    opt.update(l * 2, layer.mutable_weights(), grad_w_[l]);
    opt.update(l * 2 + 1, layer.mutable_bias(), grad_b_[l]);
  }
  opt.end_step();
  net.refresh_inference_cache();  // the next forward pass reads W^T
  return loss;
}

TrainResult train(Mlp& net, const Dataset& data, Optimizer& opt,
                  const TrainConfig& config, util::Rng& rng) {
  assert(data.size() > 0);
  assert(data.inputs.cols() == net.input_dim());
  assert(data.targets.cols() == net.output_dim());

  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);

  TrainResult result;
  result.epoch_losses.reserve(config.epochs);

  // Early-stopping bookkeeping.
  double best_val = std::numeric_limits<double>::infinity();
  std::optional<Mlp> best_net;

  TrainStep step(net);
  Matrix batch_x;
  Matrix batch_t;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.lr_schedule) opt.set_learning_rate(config.lr_schedule(epoch));
    // Fisher-Yates shuffle driven by our deterministic RNG.
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
      gather(data, idx, begin, end, batch_x, batch_t);
      epoch_loss +=
          step.update(net, batch_x, batch_t, config.huber_delta, opt);
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    result.epoch_losses.push_back(epoch_loss);
    if (config.on_epoch) config.on_epoch(epoch, epoch_loss);

    if (config.validation != nullptr && config.validation->size() > 0) {
      const double val =
          evaluate(net, *config.validation, config.huber_delta);
      result.val_losses.push_back(val);
      if (val < best_val) {
        best_val = val;
        best_net = net;  // snapshot the best weights
        result.best_epoch = epoch;
      } else if (config.patience > 0 &&
                 epoch - result.best_epoch >= config.patience) {
        result.stopped_early = true;
        break;
      }
    }
  }
  if (best_net) net = std::move(*best_net);  // restore the best epoch
  result.final_loss =
      result.epoch_losses.empty() ? 0.0 : result.epoch_losses.back();
  return result;
}

double evaluate(const Mlp& net, const Dataset& data, double huber_delta) {
  assert(data.size() > 0);
  Workspace ws;
  const Matrix& pred = net.forward_into(data.inputs, ws);
  return huber_delta > 0.0 ? huber_loss(pred, data.targets, huber_delta)
                           : mse_loss(pred, data.targets);
}

}  // namespace cvsafe::nn
