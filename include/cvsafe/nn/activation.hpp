#pragma once

#include <string>

/// \file activation.hpp
/// Elementwise activation functions. The fused forward pass applies them
/// (src/nn/dense_kernel.hpp; tanh is fast_tanh, fast_math.hpp), and their
/// derivatives, taken from the stored activation, live in the training
/// step (trainer.hpp).

namespace cvsafe::nn {

/// Supported activations.
enum class Activation {
  kIdentity,  ///< f(z) = z (output layers of regressors)
  kRelu,      ///< f(z) = max(0, z)
  kTanh,      ///< f(z) = tanh(z)
  kSigmoid,   ///< f(z) = 1 / (1 + e^-z)
};

/// Name for serialization ("identity", "relu", "tanh", "sigmoid").
std::string activation_name(Activation act);

/// Inverse of activation_name; throws std::invalid_argument on unknown.
Activation activation_from_name(const std::string& name);

}  // namespace cvsafe::nn
