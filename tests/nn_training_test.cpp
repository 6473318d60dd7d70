// Training loop, optimizers, and serialization round trips.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/serialize.hpp"
#include "cvsafe/nn/trainer.hpp"

namespace cvsafe::nn {
namespace {

/// A smooth 2D -> 1D target function for regression tests.
Dataset make_regression_data(std::size_t n, util::Rng& rng) {
  Dataset d{Matrix(n, 2), Matrix(n, 1)};
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1, 1);
    const double b = rng.uniform(-1, 1);
    d.inputs(i, 0) = a;
    d.inputs(i, 1) = b;
    d.targets(i, 0) = std::sin(2.0 * a) + 0.5 * b;
  }
  return d;
}

TEST(Dataset, SplitSizes) {
  util::Rng rng(1);
  const Dataset d = make_regression_data(100, rng);
  const auto [train, val] = d.split(0.2);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(val.size(), 20u);
  EXPECT_EQ(train.inputs.cols(), 2u);
  // Rows must be preserved (no shuffling in split).
  EXPECT_EQ(train.inputs(0, 0), d.inputs(0, 0));
  EXPECT_EQ(val.inputs(0, 0), d.inputs(80, 0));
}

TEST(Sgd, DecreasesQuadraticLoss) {
  // One parameter, loss (w - 3)^2: gradient descent must converge to 3.
  Matrix w(1, 1, {0.0});
  Sgd opt(0.1);
  for (int i = 0; i < 200; ++i) {
    const Matrix grad(1, 1, {2.0 * (w(0, 0) - 3.0)});
    opt.update(0, w, grad);
    opt.end_step();
  }
  EXPECT_NEAR(w(0, 0), 3.0, 1e-6);
}

TEST(Sgd, MomentumAcceleratesConvergence) {
  Matrix w1(1, 1, {0.0}), w2(1, 1, {0.0});
  Sgd plain(0.01, 0.0), momentum(0.01, 0.9);
  for (int i = 0; i < 50; ++i) {
    plain.update(0, w1, Matrix(1, 1, {2.0 * (w1(0, 0) - 3.0)}));
    momentum.update(0, w2, Matrix(1, 1, {2.0 * (w2(0, 0) - 3.0)}));
  }
  EXPECT_GT(w2(0, 0), w1(0, 0));  // momentum got further toward 3
}

TEST(Adam, ConvergesOnQuadratic) {
  Matrix w(1, 1, {-5.0});
  Adam opt(0.1);
  for (int i = 0; i < 500; ++i) {
    opt.update(0, w, Matrix(1, 1, {2.0 * (w(0, 0) - 3.0)}));
    opt.end_step();
  }
  EXPECT_NEAR(w(0, 0), 3.0, 1e-3);
}

TEST(Train, LossDecreases) {
  util::Rng rng(2);
  const Dataset data = make_regression_data(800, rng);
  Mlp net(MlpSpec{{2, 16, 1}, Activation::kTanh, Activation::kIdentity},
          rng);
  Adam opt(3e-3);
  TrainConfig config;
  config.epochs = 40;
  config.batch_size = 32;
  const TrainResult result = train(net, data, opt, config, rng);
  ASSERT_EQ(result.epoch_losses.size(), 40u);
  EXPECT_LT(result.final_loss, result.epoch_losses.front() * 0.2);
  EXPECT_LT(result.final_loss, 0.02);
}

TEST(Train, GeneralizesToHeldOutData) {
  util::Rng rng(3);
  const Dataset data = make_regression_data(1500, rng);
  const auto [train_set, val_set] = data.split(0.2);
  Mlp net(MlpSpec{{2, 24, 24, 1}, Activation::kTanh, Activation::kIdentity},
          rng);
  Adam opt(3e-3);
  TrainConfig config;
  config.epochs = 60;
  config.batch_size = 64;
  train(net, train_set, opt, config, rng);
  EXPECT_LT(evaluate(net, val_set), 0.02);
}

TEST(Train, HuberLossAlsoConverges) {
  util::Rng rng(4);
  const Dataset data = make_regression_data(600, rng);
  Mlp net(MlpSpec{{2, 16, 1}, Activation::kTanh, Activation::kIdentity},
          rng);
  Adam opt(3e-3);
  TrainConfig config;
  config.epochs = 40;
  config.batch_size = 32;
  config.huber_delta = 1.0;
  const auto result = train(net, data, opt, config, rng);
  EXPECT_LT(result.final_loss, result.epoch_losses.front() * 0.25);
}

TEST(Train, DeterministicGivenSeed) {
  auto run = [] {
    util::Rng rng(5);
    const Dataset data = make_regression_data(200, rng);
    Mlp net(MlpSpec{{2, 8, 1}, Activation::kTanh, Activation::kIdentity},
            rng);
    Adam opt(1e-2);
    TrainConfig config;
    config.epochs = 10;
    config.batch_size = 32;
    train(net, data, opt, config, rng);
    return net.predict({0.3, -0.4})[0];
  };
  EXPECT_EQ(run(), run());
}

TEST(Train, EpochCallbackInvoked) {
  util::Rng rng(6);
  const Dataset data = make_regression_data(100, rng);
  Mlp net(MlpSpec{{2, 4, 1}, Activation::kTanh, Activation::kIdentity}, rng);
  Sgd opt(1e-2);
  TrainConfig config;
  config.epochs = 5;
  std::size_t calls = 0;
  config.on_epoch = [&calls](std::size_t, double) { ++calls; };
  train(net, data, opt, config, rng);
  EXPECT_EQ(calls, 5u);
}

TEST(Serialize, RoundTripIsBitExact) {
  util::Rng rng(7);
  Mlp net(MlpSpec{{4, 12, 5, 1}, Activation::kTanh, Activation::kIdentity},
          rng);
  std::stringstream ss;
  save_mlp(net, ss);
  const Mlp loaded = load_mlp(ss);
  ASSERT_EQ(loaded.layer_count(), net.layer_count());
  for (double a : {-0.7, 0.0, 0.3, 1.2}) {
    const std::vector<double> x{a, -a, 0.5 * a, 1.0};
    EXPECT_EQ(net.predict(x)[0], loaded.predict(x)[0]);
  }
}

TEST(Serialize, PreservesActivations) {
  util::Rng rng(8);
  Mlp net(MlpSpec{{2, 3, 1}, Activation::kRelu, Activation::kSigmoid}, rng);
  std::stringstream ss;
  save_mlp(net, ss);
  const Mlp loaded = load_mlp(ss);
  EXPECT_EQ(loaded.layer(0).activation(), Activation::kRelu);
  EXPECT_EQ(loaded.layer(1).activation(), Activation::kSigmoid);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss("not-a-model 1\n");
  EXPECT_THROW(load_mlp(ss), std::runtime_error);
  std::stringstream truncated("cvsafe-mlp 1\n1\n2 3 tanh\n0.5");
  EXPECT_THROW(load_mlp(truncated), std::runtime_error);
  // Layers that do not chain: 2 -> 2, then a layer reading 3 inputs.
  std::stringstream unchained(
      "cvsafe-mlp 1\n2\n2 2 tanh\n0.5 0.5\n0.5 0.5\n0 0\n"
      "3 1 identity\n1 1 1\n0\n");
  EXPECT_THROW(load_mlp(unchained), std::runtime_error);
  // Parameter tokens that are not entirely one finite number.
  for (const char* token : {"0.5zz", "abc", "nan", "inf", "-inf", "1e999"}) {
    std::stringstream bad(std::string("cvsafe-mlp 1\n1\n2 1 identity\n") +
                          "0.5 " + token + "\n0\n");
    EXPECT_THROW(load_mlp(bad), std::runtime_error) << token;
    std::stringstream bad_bias(
        std::string("cvsafe-mlp 1\n1\n2 1 identity\n0.5 0.5\n") + token +
        "\n");
    EXPECT_THROW(load_mlp(bad_bias), std::runtime_error) << token;
  }
  std::stringstream good("cvsafe-mlp 1\n1\n2 1 identity\n0.5 -0x1p-2\n0\n");
  EXPECT_EQ(load_mlp(good).layer(0).weights()(0, 1), -0.25);
}

TEST(Serialize, FileRoundTrip) {
  util::Rng rng(9);
  Mlp net(MlpSpec{{2, 4, 1}, Activation::kTanh, Activation::kIdentity}, rng);
  const std::string path = "/tmp/cvsafe_serialize_test.mlp";
  ASSERT_TRUE(save_mlp_file(net, path));
  const Mlp loaded = load_mlp_file(path);
  EXPECT_EQ(net.predict({0.1, 0.2})[0], loaded.predict({0.1, 0.2})[0]);
  std::remove(path.c_str());
  EXPECT_THROW(load_mlp_file("/nonexistent/dir/x.mlp"), std::runtime_error);
}

}  // namespace
}  // namespace cvsafe::nn
