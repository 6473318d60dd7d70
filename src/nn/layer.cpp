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
  // In place: a training step refreshes the cache after every update.
  weights_t_.resize(in_dim(), out_dim());
  for (std::size_t i = 0; i < out_dim(); ++i) {
    for (std::size_t j = 0; j < in_dim(); ++j) weights_t_(j, i) = weights_(i, j);
  }
  wt_dirty_ = false;
}

}  // namespace cvsafe::nn
