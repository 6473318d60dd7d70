#include "cvsafe/nn/optimizer.hpp"

#include <cassert>
#include <cmath>

#include "isa_dispatch.hpp"

namespace cvsafe::nn {
namespace {

/// One Adam step over \p n parameters. Every operation is per element and
/// correctly rounded (mul, add, div, sqrt; no fusion under
/// -ffp-contract=off), so the loop vectorizes to the same bits; the
/// file's -fno-math-errno lets std::sqrt become sqrtpd (v_hat >= 0, so
/// errno is never set).
CVSAFE_NN_KERNEL
void adam_step(std::size_t n, double* CVSAFE_RESTRICT param,
               const double* CVSAFE_RESTRICT grad, double* CVSAFE_RESTRICT m,
               double* CVSAFE_RESTRICT v, double beta1, double beta2,
               double bc1, double bc2, double lr, double eps) {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    param[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

void Sgd::update(std::size_t key, Matrix& param, const Matrix& grad) {
  assert(param.size() == grad.size());
  auto& vel = velocity_[key];
  if (vel.size() != param.size()) vel.assign(param.size(), 0.0);
  for (std::size_t i = 0; i < param.size(); ++i) {
    vel[i] = momentum_ * vel[i] - lr_ * grad.data()[i];
    param.data()[i] += vel[i];
  }
}

void Adam::update(std::size_t key, Matrix& param, const Matrix& grad) {
  assert(param.size() == grad.size());
  auto& mo = moments_[key];
  if (mo.m.size() != param.size()) {
    mo.m.assign(param.size(), 0.0);
    mo.v.assign(param.size(), 0.0);
  }
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  adam_step(param.size(), param.data().data(), grad.data().data(),
            mo.m.data(), mo.v.data(), beta1_, beta2_, bc1, bc2, lr_, eps_);
}

}  // namespace cvsafe::nn
