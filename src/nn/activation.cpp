#include "cvsafe/nn/activation.hpp"

#include "cvsafe/nn/fast_math.hpp"
#include "isa_dispatch.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#if defined(__GNUC__) || defined(__clang__)
#define CVSAFE_RESTRICT __restrict__
#else
#define CVSAFE_RESTRICT
#endif

namespace cvsafe::nn {

Matrix apply_activation(Activation act, const Matrix& z) {
  Matrix out = z;
  apply_activation_inplace(act, out);
  return out;
}

CVSAFE_NN_KERNEL
void apply_activation_inplace(Activation act, Matrix& z) {
  switch (act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      for (auto& x : z.data()) x = x > 0.0 ? x : 0.0;
      break;
    case Activation::kTanh:
      for (auto& x : z.data()) x = fast_tanh(x);
      break;
    case Activation::kSigmoid:
      for (auto& x : z.data()) x = 1.0 / (1.0 + std::exp(-x));
      break;
  }
}

CVSAFE_NN_KERNEL
void bias_activation_inplace(Activation act, const Matrix& bias, Matrix& z) {
  assert(bias.rows() == 1 && bias.cols() == z.cols());
  const std::size_t rows = z.rows();
  const std::size_t cols = z.cols();
  const double* CVSAFE_RESTRICT bp = bias.data().data();
  double* CVSAFE_RESTRICT zp = z.data().data();
  for (std::size_t i = 0; i < rows; ++i) {
    double* CVSAFE_RESTRICT row = zp + i * cols;
    switch (act) {
      case Activation::kIdentity:
        for (std::size_t j = 0; j < cols; ++j) row[j] += bp[j];
        break;
      case Activation::kRelu:
        for (std::size_t j = 0; j < cols; ++j) {
          const double v = row[j] + bp[j];
          row[j] = v > 0.0 ? v : 0.0;
        }
        break;
      case Activation::kTanh:
        for (std::size_t j = 0; j < cols; ++j) row[j] = fast_tanh(row[j] + bp[j]);
        break;
      case Activation::kSigmoid:
        for (std::size_t j = 0; j < cols; ++j) {
          row[j] = 1.0 / (1.0 + std::exp(-(row[j] + bp[j])));
        }
        break;
    }
  }
}

CVSAFE_NN_KERNEL
Matrix activation_derivative(Activation act, const Matrix& z) {
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
        const double t = fast_tanh(x);
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
