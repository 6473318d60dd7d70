#include "cvsafe/nn/activation.hpp"

#include <stdexcept>

namespace cvsafe::nn {

std::string activation_name(Activation act) {
  switch (act) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
  }
  return "identity";
}

Activation activation_from_name(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "tanh") return Activation::kTanh;
  if (name == "sigmoid") return Activation::kSigmoid;
  throw std::invalid_argument("unknown activation: " + name);
}

}  // namespace cvsafe::nn
