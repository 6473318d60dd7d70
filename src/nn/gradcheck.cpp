#include "cvsafe/nn/gradcheck.hpp"

#include <algorithm>
#include <cmath>

#include "cvsafe/nn/loss.hpp"
#include "cvsafe/nn/trainer.hpp"

namespace cvsafe::nn {
namespace {

double loss_of(Mlp& net, const Matrix& inputs, const Matrix& targets) {
  return mse_loss(net.infer(inputs), targets);
}

}  // namespace

GradCheckResult check_gradients(Mlp& net, const Matrix& inputs,
                                const Matrix& targets, double epsilon,
                                double tolerance) {
  // Analytic gradients: the training step's, for the MSE loss.
  TrainStep step(net);
  step.gradients(net, inputs, targets, 0.0);

  GradCheckResult result;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    auto& layer = net.mutable_layer(l);
    auto check_buffer = [&](Matrix& param, const Matrix& analytic) {
      for (std::size_t i = 0; i < param.size(); ++i) {
        const double original = param.data()[i];
        param.data()[i] = original + epsilon;
        const double lp = loss_of(net, inputs, targets);
        param.data()[i] = original - epsilon;
        const double lm = loss_of(net, inputs, targets);
        param.data()[i] = original;
        const double numeric = (lp - lm) / (2.0 * epsilon);
        const double a = analytic.data()[i];
        const double denom = std::max({std::abs(a), std::abs(numeric), 1e-8});
        result.max_rel_error =
            std::max(result.max_rel_error, std::abs(a - numeric) / denom);
      }
    };
    // The finite-difference passes (infer()) leave the step's gradients
    // alone.
    check_buffer(layer.mutable_weights(), step.weight_grad(l));
    check_buffer(layer.mutable_bias(), step.bias_grad(l));
  }
  result.passed = result.max_rel_error <= tolerance;
  return result;
}

}  // namespace cvsafe::nn
