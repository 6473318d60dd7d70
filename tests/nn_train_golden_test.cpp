// Golden pin of trained model bytes.
//
// KappaNGolden pins what the conservative kappa_n does in closed loop;
// this file pins the bytes training produces. Each case trains a network
// and hashes its save_mlp text (hexfloat weights, so every bit counts)
// with FNV-1a:
//   kappa_n.*      the production conservative and aggressive kappa_n
//                  (24,000 samples, 4-24-24-1 tanh, Adam, batch 128);
//   small nets     ReLU with SGD + momentum, sigmoid with Huber, an lr
//                  schedule, a validation set with patience (early stop
//                  and best-epoch restore), each with a remainder batch.
// A change to any operation or its order anywhere in training (forward,
// loss gradient, backward, optimizer, shuffle, batching) moves a hash.
// The production models come through the model cache, which ctest empties
// at the start of each run (tests/CMakeLists.txt), so they are trained by
// the code under test.
//
// Regenerate (only when a change of trained bytes is intended) with:
//   CVSAFE_UPDATE_GOLDEN=1 ./nn_train_golden_test

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/schedule.hpp"
#include "cvsafe/nn/serialize.hpp"
#include "cvsafe/nn/trainer.hpp"
#include "cvsafe/planners/training.hpp"
#include "cvsafe/sim/left_turn.hpp"

namespace {

using namespace cvsafe;
using nn::Activation;
using nn::Dataset;
using nn::Matrix;
using nn::Mlp;
using nn::MlpSpec;

std::string fnv1a_hex(const Mlp& net) {
  std::ostringstream os;
  nn::save_mlp(net, os);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : os.str()) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// n samples of a smooth in -> 1 target.
Dataset regression_data(std::size_t n, std::size_t in, util::Rng& rng) {
  Dataset d{Matrix(n, in), Matrix(n, 1)};
  for (std::size_t i = 0; i < n; ++i) {
    double target = 0.0;
    for (std::size_t j = 0; j < in; ++j) {
      const double x = rng.uniform(-1.0, 1.0);
      d.inputs(i, j) = x;
      target += std::sin(static_cast<double>(j + 1) * x);
    }
    d.targets(i, 0) = target;
  }
  return d;
}

struct Case {
  std::string name;
  std::string hash;
};

/// Small nets: every training feature, each with a remainder batch.
std::vector<Case> small_net_cases() {
  std::vector<Case> cases;
  {
    // ReLU, SGD with momentum: 203 samples in batches of 32 (11 left).
    util::Rng rng(11);
    const Dataset data = regression_data(203, 3, rng);
    Mlp net(MlpSpec{{3, 16, 8, 1}, Activation::kRelu, Activation::kIdentity},
            rng);
    nn::Sgd opt(0.02, 0.9);
    nn::TrainConfig config;
    config.epochs = 12;
    config.batch_size = 32;
    nn::train(net, data, opt, config, rng);
    cases.push_back({"relu.sgd_momentum", fnv1a_hex(net)});
  }
  {
    // Sigmoid hidden layer, Huber loss, Adam: 150 samples in batches of
    // 17 (14 left).
    util::Rng rng(12);
    const Dataset data = regression_data(150, 2, rng);
    Mlp net(MlpSpec{{2, 12, 1}, Activation::kSigmoid, Activation::kIdentity},
            rng);
    nn::Adam opt(1e-2);
    nn::TrainConfig config;
    config.epochs = 15;
    config.batch_size = 17;
    config.huber_delta = 0.3;
    nn::train(net, data, opt, config, rng);
    cases.push_back({"sigmoid.huber.adam", fnv1a_hex(net)});
  }
  {
    // Step-decay learning-rate schedule, tanh: 100 samples in batches of
    // 24 (4 left).
    util::Rng rng(13);
    const Dataset data = regression_data(100, 4, rng);
    Mlp net(MlpSpec{{4, 10, 10, 1}, Activation::kTanh, Activation::kIdentity},
            rng);
    nn::Adam opt(1e-2);
    nn::TrainConfig config;
    config.epochs = 12;
    config.batch_size = 24;
    config.lr_schedule = nn::schedules::step_decay(2e-2, 0.5, 4);
    nn::train(net, data, opt, config, rng);
    cases.push_back({"tanh.lr_schedule", fnv1a_hex(net)});
  }
  {
    // Validation with patience: an aggressive rate makes the validation
    // loss turn, training stops early and the best epoch is restored.
    // 300 training samples in batches of 32 (12 left).
    util::Rng rng(14);
    const Dataset all = regression_data(430, 1, rng);
    const auto [train_set, val_set] = all.split(0.3);
    Mlp net(MlpSpec{{1, 16, 1}, Activation::kTanh, Activation::kIdentity},
            rng);
    nn::Adam opt(8e-2);
    nn::TrainConfig config;
    config.epochs = 200;
    config.batch_size = 32;
    config.validation = &val_set;
    config.patience = 4;
    const nn::TrainResult result = nn::train(net, train_set, opt, config, rng);
    EXPECT_TRUE(result.stopped_early) << "the case must stop early";
    EXPECT_LT(result.best_epoch + 1, result.val_losses.size())
        << "the case must restore an earlier epoch";
    cases.push_back({"tanh.early_stop", fnv1a_hex(net)});
  }
  return cases;
}

std::vector<std::string> collect_lines() {
  std::vector<std::string> lines;
  const auto scenario = sim::LeftTurnSimConfig::paper_defaults().make_scenario();
  for (const auto style : {planners::PlannerStyle::kConservative,
                           planners::PlannerStyle::kAggressive}) {
    const auto net = planners::cached_planner_network(*scenario, style);
    lines.push_back(std::string("kappa_n.") +
                    planners::planner_style_name(style) + "," +
                    fnv1a_hex(*net));
  }
  for (const Case& c : small_net_cases()) {
    lines.push_back(c.name + "," + c.hash);
  }
  return lines;
}

TEST(TrainedBytesGolden, SaveMlpHashesMatchCommittedGolden) {
  const std::string path =
      std::string(CVSAFE_GOLDEN_DIR) + "/trained_mlp_fnv1a.csv";
  const std::vector<std::string> lines = collect_lines();

  if (std::getenv("CVSAFE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "golden regenerated: " << path << " (" << lines.size()
                 << " lines)";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) want.push_back(line);
  ASSERT_EQ(lines.size(), want.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], want[i]) << "line " << i;
  }
}

}  // namespace
