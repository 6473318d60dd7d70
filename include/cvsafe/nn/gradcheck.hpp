#pragma once

#include "cvsafe/nn/mlp.hpp"

/// \file gradcheck.hpp
/// Numerical gradient verification used by the test suite to certify the
/// backpropagation implementation (DESIGN.md invariant 6).

namespace cvsafe::nn {

/// Result of a gradient check.
struct GradCheckResult {
  double max_rel_error = 0.0;  ///< worst relative error across parameters
  bool passed = false;         ///< max_rel_error <= tolerance
};

/// Compares the analytic gradients of the training step (TrainStep::
/// gradients, trainer.hpp) against central finite differences of the MSE
/// loss on the given batch, each loss from Mlp::forward_into. Every
/// parameter of \p net is restored, with its W^T cache fresh.
/// \param epsilon    finite-difference step
/// \param tolerance  maximum allowed relative error
GradCheckResult check_gradients(Mlp& net, const Matrix& inputs,
                                const Matrix& targets, double epsilon = 1e-6,
                                double tolerance = 1e-5);

}  // namespace cvsafe::nn
