#include "cvsafe/nn/gradcheck.hpp"

#include <algorithm>
#include <cmath>

#include "cvsafe/nn/loss.hpp"
#include "cvsafe/nn/trainer.hpp"

namespace cvsafe::nn {

GradCheckResult check_gradients(Mlp& net, const Matrix& inputs,
                                const Matrix& targets, double epsilon,
                                double tolerance) {
  // Analytic gradients: the training step's, for the MSE loss.
  TrainStep step(net);
  step.gradients(net, inputs, targets, 0.0);

  GradCheckResult result;
  Workspace ws;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    auto& layer = net.mutable_layer(l);
    auto check_buffer = [&](Matrix& param, const Matrix& analytic) {
      // The loss with one parameter set to \p value. The forward pass
      // reads W^T, so the layer's cache is rebuilt first.
      auto loss_at = [&](std::size_t i, double value) {
        param.data()[i] = value;
        layer.refresh_inference_cache();
        return mse_loss(net.forward_into(inputs, ws), targets);
      };
      for (std::size_t i = 0; i < param.size(); ++i) {
        const double original = param.data()[i];
        const double lp = loss_at(i, original + epsilon);
        const double lm = loss_at(i, original - epsilon);
        param.data()[i] = original;
        const double numeric = (lp - lm) / (2.0 * epsilon);
        const double a = analytic.data()[i];
        const double denom = std::max({std::abs(a), std::abs(numeric), 1e-8});
        result.max_rel_error =
            std::max(result.max_rel_error, std::abs(a - numeric) / denom);
      }
    };
    // The finite-difference passes (forward_into) leave the step's
    // gradients alone.
    check_buffer(layer.mutable_weights(), step.weight_grad(l));
    check_buffer(layer.mutable_bias(), step.bias_grad(l));
    layer.refresh_inference_cache();  // W^T of the restored weights
  }
  result.passed = result.max_rel_error <= tolerance;
  return result;
}

}  // namespace cvsafe::nn
