// The training step (nn::TrainStep, nn::train) against the per-layer path
// it replaced (tests/support/train_reference.hpp), bit for bit: gradients,
// updated weights and TrainResult losses.
//
// Random nets cover hidden widths around the kernels' 4-, 8- and 24-column
// tiles, depths 1-4, all four activations, MSE and Huber, and batches with
// a remainder. Random inputs almost never make a sum whose every product is
// a signed zero, so the harness also runs structured batches: x rows of all
// +/-0.0 with every bias -0.0, where a sum seeded with its first product
// instead of +0.0 ends at -0.0 (forward sums, dL/dW, and through ReLU's
// zero derivative, dL/dx).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/schedule.hpp"
#include "cvsafe/nn/trainer.hpp"
#include "cvsafe/util/rng.hpp"
#include "support/train_reference.hpp"

namespace cvsafe::nn {
namespace {

constexpr std::size_t kWidths[] = {1, 4, 8, 23, 24, 25, 64};
constexpr Activation kActivations[] = {Activation::kIdentity,
                                       Activation::kRelu, Activation::kTanh,
                                       Activation::kSigmoid};
constexpr std::size_t kInputs[] = {1, 4, 5};
constexpr std::size_t kRows[] = {1, 3, 6, 17};

/// Bit equality; NaNs match whatever their payloads.
bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(const Matrix& got, const Matrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got.data()[i], want.data()[i]))
        << what << " element " << i << std::hexfloat << ": "
        << got.data()[i] << " vs reference " << want.data()[i];
  }
}

void expect_same_params(const Mlp& got, const Mlp& want) {
  ASSERT_EQ(got.layer_count(), want.layer_count());
  for (std::size_t l = 0; l < got.layer_count(); ++l) {
    const std::string layer = "layer " + std::to_string(l);
    expect_same_bits(got.layer(l).weights(), want.layer(l).weights(),
                     layer + " W");
    expect_same_bits(got.layer(l).bias(), want.layer(l).bias(), layer + " b");
  }
}

void expect_same_losses(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " " << i << std::hexfloat << ": " << got[i]
        << " vs reference " << want[i];
  }
}

/// \p depth layers from \p in inputs: hidden widths cycle through kWidths
/// from \p first, the output is 1 or 2 wide. Hidden layers use \p act;
/// the output layer uses it too on odd shapes, identity otherwise.
Mlp random_net(std::size_t in, std::size_t first, std::size_t depth,
               Activation act, std::size_t shape, util::Rng& rng) {
  MlpSpec spec;
  spec.layer_sizes.push_back(in);
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    spec.layer_sizes.push_back(kWidths[(first + l) % std::size(kWidths)]);
  }
  spec.layer_sizes.push_back(1 + shape % 2);
  spec.hidden_activation = act;
  spec.output_activation = shape % 2 ? act : Activation::kIdentity;
  Mlp net(spec, rng);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    for (auto& b : net.mutable_layer(l).mutable_bias().data()) {
      b = rng.uniform(-0.5, 0.5);
    }
  }
  net.refresh_inference_cache();
  return net;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, double lo,
                     double hi, util::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(lo, hi);
  return m;
}

/// The structured signed-zero case: every bias -0.0 and x rows of all
/// +0.0 or all -0.0, alternating.
Matrix signed_zero_rows(Mlp& net, std::size_t rows) {
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    for (auto& b : net.mutable_layer(l).mutable_bias().data()) b = -0.0;
  }
  Matrix x(rows, net.input_dim());
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) x(i, j) = i % 2 ? -0.0 : 0.0;
  }
  return x;
}

/// Gradients and loss of one batch, the step against the reference.
void expect_gradients_match(Mlp& net, const Matrix& x, const Matrix& t,
                            double huber_delta) {
  train_ref::Backprop ref;
  const double want = ref.gradients(net, x, t, huber_delta);
  TrainStep step(net);
  const double got = step.gradients(net, x, t, huber_delta);
  ASSERT_TRUE(same_bits(got, want))
      << "loss " << std::hexfloat << got << " vs reference " << want;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const std::string layer = "layer " + std::to_string(l);
    expect_same_bits(step.weight_grad(l), ref.caches[l].grad_weights,
                     layer + " dL/dW");
    expect_same_bits(step.bias_grad(l), ref.caches[l].grad_bias,
                     layer + " dL/db");
  }
}

TEST(TrainStep, GradientsMatchPerLayerReferenceBitForBit) {
  util::Rng rng(61);
  std::size_t shape = 0;
  for (const Activation act : kActivations) {
    for (std::size_t w = 0; w < std::size(kWidths); ++w) {
      for (std::size_t depth = 1; depth <= 4; ++depth, ++shape) {
        const std::size_t in = kInputs[shape % std::size(kInputs)];
        const std::size_t rows = kRows[shape % std::size(kRows)];
        for (const double huber : {0.0, 0.25}) {
          SCOPED_TRACE(testing::Message()
                       << activation_name(act) << " depth " << depth
                       << " in " << in << " first width " << kWidths[w]
                       << " rows " << rows << " huber " << huber);
          Mlp net = random_net(in, w, depth, act, shape, rng);
          const Matrix x = random_matrix(rows, in, -1.5, 1.5, rng);
          const Matrix t = random_matrix(rows, net.output_dim(), -1, 1, rng);
          expect_gradients_match(net, x, t, huber);

          SCOPED_TRACE("signed-zero rows, -0.0 biases");
          const Matrix zeros = signed_zero_rows(net, rows);
          Matrix ones(rows, net.output_dim());
          for (auto& v : ones.data()) v = 1.0;
          expect_gradients_match(net, zeros, ones, huber);
        }
      }
    }
  }
}

TEST(TrainStep, SparseReluGradientsMatchPerLayerReferenceBitForBit) {
  // 256 rows through a 64-wide ReLU layer whose biases switch most units
  // off: its dL/dz holds 16384 entries, more than half exactly zero, so
  // dL/dW and dL/dx take the exact-zero skip.
  util::Rng rng(62);
  Mlp net(MlpSpec{{5, 64, 64, 1}, Activation::kRelu, Activation::kIdentity},
          rng);
  for (std::size_t l = 0; l < 2; ++l) {
    for (auto& b : net.mutable_layer(l).mutable_bias().data()) {
      b = rng.uniform(-1.5, 0.2);
    }
  }
  const Matrix x = random_matrix(256, 5, -1.0, 1.0, rng);
  const Matrix t = random_matrix(256, 1, -1.0, 1.0, rng);
  train_ref::Backprop ref;
  ref.gradients(net, x, t, 0.0);
  for (std::size_t l = 0; l < 2; ++l) {
    ASSERT_TRUE(train_ref::mostly_zero(ref.caches[l].grad_z.data()))
        << "layer " << l << " must take the sparse path";
  }
  expect_gradients_match(net, x, t, 0.0);
  expect_gradients_match(net, x, t, 0.1);
}

/// One nn::train run against train_ref::train from the same net and seed.
void expect_training_matches(const Mlp& init, const Dataset& data,
                             const TrainConfig& config, bool sgd,
                             std::uint64_t seed) {
  Mlp got_net = init;
  Mlp want_net = init;
  Adam adam_got(1e-2);
  Adam adam_want(1e-2);
  Sgd sgd_got(0.02, 0.9);
  Sgd sgd_want(0.02, 0.9);
  Optimizer& opt_got = sgd ? static_cast<Optimizer&>(sgd_got) : adam_got;
  Optimizer& opt_want = sgd ? static_cast<Optimizer&>(sgd_want) : adam_want;
  util::Rng rng_got(seed);
  util::Rng rng_want(seed);
  const TrainResult got = train(got_net, data, opt_got, config, rng_got);
  const TrainResult want =
      train_ref::train(want_net, data, opt_want, config, rng_want);
  expect_same_losses(got.epoch_losses, want.epoch_losses, "epoch loss");
  expect_same_losses(got.val_losses, want.val_losses, "validation loss");
  EXPECT_TRUE(same_bits(got.final_loss, want.final_loss));
  EXPECT_EQ(got.best_epoch, want.best_epoch);
  EXPECT_EQ(got.stopped_early, want.stopped_early);
  expect_same_params(got_net, want_net);
  EXPECT_EQ(rng_got.next_u64(), rng_want.next_u64()) << "shuffle draws";
}

Dataset random_dataset(std::size_t n, std::size_t in, std::size_t out,
                       util::Rng& rng) {
  return Dataset{random_matrix(n, in, -1.0, 1.0, rng),
                 random_matrix(n, out, -1.0, 1.0, rng)};
}

TEST(TrainStep, TrainMatchesPerLayerReferenceBitForBit) {
  util::Rng rng(63);
  std::size_t shape = 0;
  for (const Activation act : kActivations) {
    for (std::size_t w = 0; w < std::size(kWidths); ++w, ++shape) {
      const std::size_t depth = 1 + shape % 4;
      const std::size_t in = kInputs[shape % std::size(kInputs)];
      SCOPED_TRACE(testing::Message()
                   << activation_name(act) << " depth " << depth << " in "
                   << in << " first width " << kWidths[w]);
      const Mlp net = random_net(in, w, depth, act, shape, rng);
      // 45 samples in batches of 8: five full batches and one of 5.
      const Dataset data = random_dataset(45, in, net.output_dim(), rng);
      TrainConfig config;
      config.epochs = 3;
      config.batch_size = 8;
      config.huber_delta = shape % 3 == 0 ? 0.2 : 0.0;
      expect_training_matches(net, data, config, shape % 2 == 1, shape);
    }
  }
}

TEST(TrainStep, TrainWithScheduleAndEarlyStopMatchesReferenceBitForBit) {
  util::Rng rng(64);
  const Mlp net(MlpSpec{{2, 24, 8, 1}, Activation::kTanh,
                        Activation::kIdentity},
                rng);
  const Dataset data = random_dataset(70, 2, 1, rng);
  const Dataset val = random_dataset(20, 2, 1, rng);
  TrainConfig config;
  config.epochs = 40;
  config.batch_size = 16;
  config.lr_schedule = schedules::step_decay(5e-2, 0.5, 10);
  config.validation = &val;
  config.patience = 3;
  expect_training_matches(net, data, config, false, 7);
  config.huber_delta = 0.1;
  expect_training_matches(net, data, config, true, 8);
}

TEST(TrainStep, ProductionShapeTrainsLikeReferenceBitForBit) {
  // kappa_n's shape and batch: 4 -> 24 -> 24 -> 1 tanh, batches of 128
  // with a remainder of 44.
  util::Rng rng(65);
  MlpSpec spec;
  spec.layer_sizes = {4, 24, 24, 1};
  const Mlp net(spec, rng);
  const Dataset data = random_dataset(300, 4, 1, rng);
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 128;
  expect_training_matches(net, data, config, false, 9);
}

}  // namespace
}  // namespace cvsafe::nn
