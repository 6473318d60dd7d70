// Property tests for the zero-allocation inference path: forward_into,
// predict_scalar and plan_batch must be bit-identical to the per-layer
// reference pass (support/train_reference.hpp, in-order loops on W),
// across randomized architectures, activations and batch sizes. Matrix
// equality below is the defaulted operator== on the raw double storage,
// i.e. exact bit comparison for all finite values.

#include <array>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "cvsafe/nn/matrix.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/nn/workspace.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/util/rng.hpp"
#include "support/train_reference.hpp"

namespace {

using cvsafe::nn::Matrix;
using cvsafe::nn::Mlp;
using cvsafe::nn::MlpSpec;
using cvsafe::nn::Workspace;

Matrix random_matrix(std::size_t r, std::size_t c, cvsafe::util::Rng& rng) {
  Matrix m(r, c);
  for (auto& x : m.data()) x = rng.uniform(-2.0, 2.0);
  return m;
}

/// The per-layer reference pass of \p net on \p x.
Matrix reference_forward(const Mlp& net, const Matrix& x) {
  return cvsafe::train_ref::Backprop{}.forward(net, x);
}

TEST(NnWorkspaceTest, MatmulIntoMatchesAllocatingMatmul) {
  cvsafe::util::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 17));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 65));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    Matrix out;
    cvsafe::nn::matmul_into(a, b, out);
    EXPECT_EQ(out, a.matmul(b));
  }
}

TEST(NnWorkspaceTest, MatmulSparseAndDensePathsAgree) {
  // Force the exact-zero skip path (mostly zeros, size above the probe
  // threshold) and check it against the same product computed densely.
  cvsafe::util::Rng rng(12);
  Matrix a(70, 70);
  for (auto& x : a.data()) x = rng.uniform01() < 0.05 ? rng.uniform(-1, 1) : 0.0;
  const Matrix b = random_matrix(70, 33, rng);

  Matrix dense = a;  // same values, but break sparsity with a dense twin
  Matrix expected(70, 33);
  for (std::size_t i = 0; i < 70; ++i)
    for (std::size_t j = 0; j < 33; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < 70; ++k) s += a(i, k) * b(k, j);
      expected(i, j) = s;
    }
  // The kernels accumulate k-ascending exactly like the loop above, and
  // skipping exact zeros never changes a finite accumulator.
  EXPECT_EQ(a.matmul(b), expected);
  EXPECT_EQ(dense.matmul(b), expected);
}

MlpSpec random_spec(cvsafe::util::Rng& rng) {
  MlpSpec spec;
  const auto depth = rng.uniform_int(1, 4);  // 1..4 hidden layers (inclusive)
  spec.layer_sizes.push_back(static_cast<std::size_t>(rng.uniform_int(1, 9)));
  for (int i = 0; i < depth; ++i) {
    spec.layer_sizes.push_back(static_cast<std::size_t>(rng.uniform_int(1, 48)));
  }
  spec.layer_sizes.push_back(1);
  const std::array<cvsafe::nn::Activation, 3> acts{
      cvsafe::nn::Activation::kTanh, cvsafe::nn::Activation::kRelu,
      cvsafe::nn::Activation::kSigmoid};
  spec.hidden_activation = acts[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  return spec;
}

TEST(NnWorkspaceTest, ForwardIntoBitIdenticalToInfer) {
  cvsafe::util::Rng rng(21);
  for (int trial = 0; trial < 12; ++trial) {
    const MlpSpec spec = random_spec(rng);
    const Mlp net(spec, rng);
    Workspace ws;
    for (std::size_t batch : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
      const Matrix x = random_matrix(batch, net.input_dim(), rng);
      const Matrix expected = reference_forward(net, x);
      const Matrix& got = net.forward_into(x, ws);
      EXPECT_EQ(got, expected) << "trial " << trial << " batch " << batch;
    }
  }
}

TEST(NnWorkspaceTest, PredictScalarBitIdenticalToPredict) {
  cvsafe::util::Rng rng(22);
  for (int trial = 0; trial < 12; ++trial) {
    const MlpSpec spec = random_spec(rng);
    const Mlp net(spec, rng);
    Workspace ws;
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<double> x(net.input_dim());
      for (auto& v : x) v = rng.uniform(-3.0, 3.0);
      EXPECT_EQ(net.predict_scalar(x, ws),
                reference_forward(net, Matrix::row_vector(x))(0, 0));
    }
  }
}

TEST(NnWorkspaceTest, ForwardIntoAfterTrainingMutationStaysConsistent) {
  // mutable_weights() invalidates the transposed inference cache (a stale
  // one fails forward_into's contract, FusedForward.StaleCache*); once
  // refreshed, the fused pass must agree bit for bit with the reference
  // built from the mutated weights.
  cvsafe::util::Rng rng(23);
  MlpSpec spec;
  spec.layer_sizes = {4, 16, 1};
  Mlp net(spec, rng);
  const Matrix x = random_matrix(7, 4, rng);
  Workspace ws;

  Matrix& w = net.mutable_layer(0).mutable_weights();  // marks cache dirty
  for (auto& v : w.data()) v += 0.25;
  net.refresh_inference_cache();
  EXPECT_EQ(net.forward_into(x, ws), reference_forward(net, x));
}

TEST(NnWorkspaceTest, WorkspaceBuffersStableAcrossRepeatedCalls) {
  // After a warm-up call, repeated same-shape inference must reuse the
  // exact same storage (the zero-allocation property, observable here as
  // data-pointer stability; the bench harness checks the alloc counter).
  cvsafe::util::Rng rng(24);
  MlpSpec spec;
  spec.layer_sizes = {4, 32, 32, 1};
  const Mlp net(spec, rng);
  Workspace ws;
  const Matrix x = random_matrix(8, 4, rng);
  const Matrix& out1 = net.forward_into(x, ws);
  const double* p1 = out1.data().data();
  for (int rep = 0; rep < 10; ++rep) {
    const Matrix& out = net.forward_into(x, ws);
    EXPECT_EQ(out.data().data(), p1);
  }
}

TEST(NnWorkspaceTest, PlanBatchMatchesPlanPerWorld) {
  cvsafe::util::Rng rng(25);
  MlpSpec spec;
  spec.layer_sizes = {cvsafe::planners::InputEncoding::dim(), 24, 24, 1};
  auto net = std::make_shared<const Mlp>(Mlp(spec, rng));
  cvsafe::planners::NnPlanner planner(net, cvsafe::planners::InputEncoding{},
                                      "test");
  cvsafe::planners::NnPlanner planner_batch(
      net, cvsafe::planners::InputEncoding{}, "test-batch");

  std::vector<cvsafe::scenario::LeftTurnWorld> worlds(17);
  for (auto& w : worlds) {
    w.t = rng.uniform(0.0, 10.0);
    w.ego.p = rng.uniform(-40.0, 5.0);
    w.ego.v = rng.uniform(0.0, 15.0);
    w.tau1_nn = rng.uniform01() < 0.2
                    ? cvsafe::util::Interval::empty_interval()
                    : cvsafe::util::Interval{w.t + rng.uniform(0.0, 5.0),
                                             w.t + rng.uniform(5.0, 12.0)};
  }

  std::vector<double> batched(worlds.size());
  planner_batch.plan_batch(worlds, batched);
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    EXPECT_EQ(batched[i], planner.plan(worlds[i])) << "world " << i;
  }
}

}  // namespace
