// Layer / activation / backpropagation correctness, including the
// numerical gradient check (DESIGN.md invariant 6).

#include <gtest/gtest.h>

#include "cvsafe/nn/activation.hpp"
#include "cvsafe/nn/gradcheck.hpp"
#include "cvsafe/nn/layer.hpp"
#include "cvsafe/nn/loss.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/nn/workspace.hpp"
#include "support/train_reference.hpp"

namespace cvsafe::nn {
namespace {

/// \p layer alone, through Mlp::forward_into.
Matrix forward(const DenseLayer& layer, const Matrix& x) {
  const Mlp net(std::vector<DenseLayer>{layer});
  Workspace ws;
  return net.forward_into(x, ws);
}

/// The activation of each entry of the 1 x n \p z, as the forward pass
/// applies it: a one-input layer with a unit weight and a zero bias hands
/// each row's input to the activation as it is (-0.0 as +0.0).
Matrix activate(Activation act, const Matrix& z) {
  const DenseLayer unit(Matrix(1, 1, {1.0}), Matrix(1, 1), act);
  const Matrix y = forward(unit, Matrix(z.cols(), 1, z.data()));
  return Matrix(1, z.cols(), y.data());
}

// The derivatives are those of the per-layer reference path
// (support/train_reference.hpp), which the training step is held to bit for
// bit in nn_train_step_test.

TEST(Activation, ReluValuesAndDerivative) {
  const Matrix z(1, 4, {-2.0, -0.0, 0.5, 3.0});
  const Matrix y = activate(Activation::kRelu, z);
  EXPECT_EQ(y.data(), (std::vector<double>{0.0, 0.0, 0.5, 3.0}));
  const Matrix d = train_ref::activation_derivative(Activation::kRelu, z);
  EXPECT_EQ(d.data(), (std::vector<double>{0.0, 0.0, 1.0, 1.0}));
}

TEST(Activation, TanhBoundsAndDerivative) {
  const Matrix z(1, 3, {-10.0, 0.0, 10.0});
  const Matrix y = activate(Activation::kTanh, z);
  EXPECT_NEAR(y(0, 0), -1.0, 1e-6);
  EXPECT_EQ(y(0, 1), 0.0);
  EXPECT_NEAR(y(0, 2), 1.0, 1e-6);
  const Matrix d = train_ref::activation_derivative(Activation::kTanh, z);
  EXPECT_NEAR(d(0, 1), 1.0, 1e-12);
  EXPECT_LT(d(0, 0), 1e-6);
}

TEST(Activation, SigmoidRange) {
  const Matrix z(1, 3, {-10.0, 0.0, 10.0});
  const Matrix y = activate(Activation::kSigmoid, z);
  EXPECT_NEAR(y(0, 0), 0.0, 1e-4);
  EXPECT_NEAR(y(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(y(0, 2), 1.0, 1e-4);
}

TEST(Activation, NameRoundTrip) {
  for (auto a : {Activation::kIdentity, Activation::kRelu, Activation::kTanh,
                 Activation::kSigmoid}) {
    EXPECT_EQ(activation_from_name(activation_name(a)), a);
  }
  EXPECT_THROW(activation_from_name("bogus"), std::invalid_argument);
}

TEST(DenseLayer, ForwardKnownValues) {
  // y = x W^T + b with identity activation.
  DenseLayer layer(Matrix(2, 3, {1, 0, 0, 0, 1, 0}),
                   Matrix::row_vector({10, 20}), Activation::kIdentity);
  const Matrix x(1, 3, {1, 2, 3});
  const Matrix y = forward(layer, x);
  EXPECT_EQ(y(0, 0), 11.0);
  EXPECT_EQ(y(0, 1), 22.0);
}

TEST(DenseLayer, ForwardAndInferAgree) {
  // The reference's training forward pass (which caches x and z) and
  // inference (Mlp::forward_into) give the same bits.
  util::Rng rng(1);
  DenseLayer layer(4, 3, Activation::kTanh, rng);
  Matrix x(5, 4);
  for (auto& v : x.data()) v = rng.uniform(-1, 1);
  train_ref::LayerCache cache;
  const Matrix a = train_ref::forward(layer, x, cache);
  const Matrix b = forward(layer, x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Mlp, ShapesAndParameterCount) {
  util::Rng rng(2);
  Mlp net(MlpSpec{{4, 8, 8, 1}, Activation::kTanh, Activation::kIdentity},
          rng);
  EXPECT_EQ(net.input_dim(), 4u);
  EXPECT_EQ(net.output_dim(), 1u);
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_EQ(net.parameter_count(),
            (4u * 8 + 8) + (8u * 8 + 8) + (8u * 1 + 1));
}

TEST(Loss, MseKnownValue) {
  const Matrix pred(1, 2, {1.0, 2.0});
  const Matrix target(1, 2, {0.0, 4.0});
  EXPECT_NEAR(mse_loss(pred, target), (1.0 + 4.0) / 2.0, 1e-12);
  const Matrix g = mse_gradient(pred, target);
  EXPECT_NEAR(g(0, 0), 1.0, 1e-12);   // 2 * 1 / 2
  EXPECT_NEAR(g(0, 1), -2.0, 1e-12);  // 2 * -2 / 2
}

TEST(Loss, HuberMatchesMseInside) {
  const Matrix pred(1, 2, {0.1, -0.2});
  const Matrix target(1, 2, {0.0, 0.0});
  EXPECT_NEAR(huber_loss(pred, target, 10.0),
              0.5 * mse_loss(pred, target), 1e-12);
}

TEST(Loss, HuberLinearOutside) {
  const Matrix pred(1, 1, {100.0});
  const Matrix target(1, 1, {0.0});
  EXPECT_NEAR(huber_loss(pred, target, 1.0), 1.0 * (100.0 - 0.5), 1e-9);
  EXPECT_NEAR(huber_gradient(pred, target, 1.0)(0, 0), 1.0, 1e-12);
}

// ---- Gradient checks (the backbone invariant) ---------------------------

class GradCheckTest
    : public ::testing::TestWithParam<std::tuple<Activation, int>> {};

TEST_P(GradCheckTest, AnalyticMatchesNumeric) {
  const auto [act, depth] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(depth) * 100 +
                static_cast<std::uint64_t>(act));
  std::vector<std::size_t> sizes{4};
  for (int i = 0; i < depth; ++i) sizes.push_back(6);
  sizes.push_back(2);
  Mlp net(MlpSpec{sizes, act, Activation::kIdentity}, rng);

  Matrix x(7, 4), y(7, 2);
  for (auto& v : x.data()) v = rng.uniform(-1, 1);
  for (auto& v : y.data()) v = rng.uniform(-1, 1);

  const auto result = check_gradients(net, x, y, 1e-6, 1e-4);
  EXPECT_TRUE(result.passed)
      << "max relative error " << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    ActivationsAndDepths, GradCheckTest,
    ::testing::Combine(::testing::Values(Activation::kIdentity,
                                         Activation::kTanh,
                                         Activation::kSigmoid),
                       ::testing::Values(1, 2, 3)));

// ReLU gradchecked separately with inputs away from the kink.
TEST(GradCheck, ReluAwayFromKink) {
  util::Rng rng(77);
  Mlp net(MlpSpec{{3, 8, 1}, Activation::kRelu, Activation::kIdentity}, rng);
  Matrix x(5, 3), y(5, 1);
  for (auto& v : x.data()) v = rng.uniform(0.5, 1.5);
  for (auto& v : y.data()) v = rng.uniform(-1, 1);
  const auto result = check_gradients(net, x, y, 1e-6, 1e-3);
  EXPECT_TRUE(result.passed)
      << "max relative error " << result.max_rel_error;
}

}  // namespace
}  // namespace cvsafe::nn
