#include "cvsafe/nn/layer.hpp"

#include <cassert>

namespace cvsafe::nn {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation act,
                       util::Rng& rng)
    : weights_(Matrix::glorot(out_dim, in_dim, rng)),
      bias_(1, out_dim),
      act_(act) {
  refresh_inference_cache();
}

DenseLayer::DenseLayer(Matrix weights, Matrix bias, Activation act)
    : weights_(std::move(weights)), bias_(std::move(bias)), act_(act) {
  assert(bias_.rows() == 1 && bias_.cols() == weights_.rows());
  refresh_inference_cache();
}

void DenseLayer::refresh_inference_cache() {
  weights_t_ = weights_.transpose();
  wt_dirty_ = false;
}

Matrix DenseLayer::forward(const Matrix& x) {
  assert(x.cols() == in_dim());
  input_ = x;
  preact_ = x.matmul_transposed(weights_);  // n x out
  preact_.add_row_broadcast(bias_);
  return apply_activation(act_, preact_);
}

Matrix DenseLayer::infer(const Matrix& x) const {
  assert(x.cols() == in_dim());
  Matrix z = x.matmul_transposed(weights_);
  z.add_row_broadcast(bias_);
  return apply_activation(act_, z);
}

void DenseLayer::infer_into(const Matrix& x, Matrix& out) const {
  assert(x.cols() == in_dim());
  matmul_transposed_into(x, weights_, out);
  bias_activation_inplace(act_, bias_, out);
}

Matrix DenseLayer::backward(const Matrix& grad_out) {
  assert(grad_out.rows() == preact_.rows() &&
         grad_out.cols() == preact_.cols());
  // dL/dz = dL/dy * f'(z)
  const Matrix grad_z = grad_out.hadamard(activation_derivative(act_, preact_));
  // dL/dW = dz^T X  (out x in), dL/db = column sums of dz.
  grad_weights_ = grad_z.transposed_matmul(input_);
  grad_bias_ = grad_z.column_sums();
  // dL/dx = dz W  (n x in).
  return grad_z.matmul(weights_);
}

}  // namespace cvsafe::nn
