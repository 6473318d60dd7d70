#pragma once

#include <string>

#include "cvsafe/nn/matrix.hpp"

/// \file activation.hpp
/// Elementwise activation functions. Their derivatives, taken from the
/// stored activation, live in the training step (trainer.hpp).

namespace cvsafe::nn {

/// Supported activations.
enum class Activation {
  kIdentity,  ///< f(z) = z (output layers of regressors)
  kRelu,      ///< f(z) = max(0, z)
  kTanh,      ///< f(z) = tanh(z)
  kSigmoid,   ///< f(z) = 1 / (1 + e^-z)
};

/// Applies the activation elementwise.
Matrix apply_activation(Activation act, const Matrix& z);

/// Applies the activation elementwise in place (no allocation).
void apply_activation_inplace(Activation act, Matrix& z);

/// Fused z += bias (row broadcast) followed by the activation, in one pass
/// over \p z. Elementwise result is f(z + b) exactly as the two-step
/// sequence computes it, so this is bit-identical to
/// add_row_broadcast + apply_activation_inplace. \p bias must be 1 x cols.
void bias_activation_inplace(Activation act, const Matrix& bias, Matrix& z);

/// Name for serialization ("identity", "relu", "tanh", "sigmoid").
std::string activation_name(Activation act);

/// Inverse of activation_name; throws std::invalid_argument on unknown.
Activation activation_from_name(const std::string& name);

}  // namespace cvsafe::nn
