// Normalizer, metrics, learning-rate schedules, early stopping, and the
// ensemble planner.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "cvsafe/nn/metrics.hpp"
#include "cvsafe/nn/normalizer.hpp"
#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/schedule.hpp"
#include "cvsafe/nn/trainer.hpp"
#include "cvsafe/planners/ensemble.hpp"

namespace cvsafe::nn {
namespace {

TEST(Standardizer, FitTransformsToZeroMeanUnitStd) {
  util::Rng rng(1);
  Matrix data(500, 3);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    data(i, 0) = rng.normal(10.0, 4.0);
    data(i, 1) = rng.normal(-2.0, 0.5);
    data(i, 2) = 7.0;  // constant column
  }
  const Standardizer s = Standardizer::fit(data);
  const Matrix z = s.transform(data);
  for (std::size_t j = 0; j < 3; ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < z.rows(); ++i) mean += z(i, j);
    mean /= static_cast<double>(z.rows());
    EXPECT_NEAR(mean, 0.0, 1e-9) << "column " << j;
  }
  // Constant column passes through with std 1.
  EXPECT_EQ(s.stddev()[2], 1.0);
  EXPECT_EQ(z(0, 2), 0.0);
}

TEST(Standardizer, InverseRoundTrip) {
  util::Rng rng(2);
  Matrix data(100, 2);
  for (auto& x : data.data()) x = rng.uniform(-20, 20);
  const Standardizer s = Standardizer::fit(data);
  const Matrix back = s.inverse(s.transform(data));
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(back.data()[i], data.data()[i], 1e-9);
  }
}

TEST(Standardizer, TransformRowMatchesMatrix) {
  util::Rng rng(3);
  Matrix data(50, 2);
  for (auto& x : data.data()) x = rng.uniform(-5, 5);
  const Standardizer s = Standardizer::fit(data);
  const auto row = s.transform_row({data(7, 0), data(7, 1)});
  const Matrix z = s.transform(data);
  EXPECT_NEAR(row[0], z(7, 0), 1e-12);
  EXPECT_NEAR(row[1], z(7, 1), 1e-12);
}

TEST(Standardizer, SerializationRoundTrip) {
  util::Rng rng(4);
  Matrix data(40, 3);
  for (auto& x : data.data()) x = rng.uniform(-5, 5);
  const Standardizer s = Standardizer::fit(data);
  std::stringstream ss;
  s.save(ss);
  const Standardizer loaded = Standardizer::load(ss);
  ASSERT_EQ(loaded.columns(), s.columns());
  for (std::size_t j = 0; j < s.columns(); ++j) {
    EXPECT_EQ(loaded.mean()[j], s.mean()[j]);
    EXPECT_EQ(loaded.stddev()[j], s.stddev()[j]);
  }
  std::stringstream bad("garbage");
  EXPECT_THROW(Standardizer::load(bad), std::runtime_error);
}

TEST(Standardizer, IdentityPassesThrough) {
  const Standardizer s = Standardizer::identity(3);
  const Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix z = s.transform(m);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(z.data()[i], m.data()[i]);
  }
}

TEST(Metrics, KnownValues) {
  const Matrix pred(1, 4, {1.0, 2.0, 3.0, 4.0});
  const Matrix target(1, 4, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(mean_absolute_error(pred, target), 0.0);
  EXPECT_EQ(r_squared(pred, target), 1.0);
  EXPECT_EQ(max_absolute_error(pred, target), 0.0);

  const Matrix off(1, 4, {2.0, 3.0, 4.0, 8.0});
  EXPECT_NEAR(mean_absolute_error(off, target), (1 + 1 + 1 + 4) / 4.0,
              1e-12);
  EXPECT_EQ(max_absolute_error(off, target), 4.0);
  EXPECT_LT(r_squared(off, target), 1.0);
}

TEST(Metrics, RSquaredMeanPredictorIsZero) {
  const Matrix target(1, 4, {1.0, 2.0, 3.0, 4.0});
  const Matrix mean_pred(1, 4, {2.5, 2.5, 2.5, 2.5});
  EXPECT_NEAR(r_squared(mean_pred, target), 0.0, 1e-12);
}

TEST(Schedules, Shapes) {
  const auto c = schedules::constant(0.1);
  EXPECT_EQ(c(0), 0.1);
  EXPECT_EQ(c(100), 0.1);

  const auto sd = schedules::step_decay(1.0, 0.5, 10);
  EXPECT_EQ(sd(0), 1.0);
  EXPECT_EQ(sd(9), 1.0);
  EXPECT_EQ(sd(10), 0.5);
  EXPECT_EQ(sd(25), 0.25);

  const auto cos = schedules::cosine(1.0, 100, 0.1);
  EXPECT_NEAR(cos(0), 1.0, 1e-12);
  EXPECT_NEAR(cos(50), 0.55, 1e-12);
  EXPECT_NEAR(cos(100), 0.1, 1e-12);
  EXPECT_NEAR(cos(200), 0.1, 1e-12);
  // Monotone non-increasing.
  for (std::size_t e = 1; e <= 100; ++e) {
    EXPECT_LE(cos(e), cos(e - 1) + 1e-12);
  }
}

Dataset toy_data(std::size_t n, util::Rng& rng) {
  Dataset d{Matrix(n, 1), Matrix(n, 1)};
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-1, 1);
    d.inputs(i, 0) = x;
    d.targets(i, 0) = std::sin(3.0 * x);
  }
  return d;
}

TEST(Trainer, LrScheduleIsApplied) {
  util::Rng rng(5);
  const Dataset data = toy_data(200, rng);
  Mlp net(MlpSpec{{1, 8, 1}, Activation::kTanh, Activation::kIdentity},
          rng);
  Adam opt(1.0);  // will be overridden by the schedule
  TrainConfig config;
  config.epochs = 3;
  config.lr_schedule = schedules::constant(1e-3);
  train(net, data, opt, config, rng);
  EXPECT_EQ(opt.learning_rate(), 1e-3);
}

TEST(Trainer, EarlyStoppingStopsAndRestoresBest) {
  util::Rng rng(6);
  const Dataset all = toy_data(600, rng);
  const auto [train_set, val_set] = all.split(0.3);
  Mlp net(MlpSpec{{1, 16, 1}, Activation::kTanh, Activation::kIdentity},
          rng);
  // Aggressive LR so validation loss fluctuates and patience can fire.
  Adam opt(5e-2);
  TrainConfig config;
  config.epochs = 200;
  config.batch_size = 32;
  config.validation = &val_set;
  config.patience = 5;
  const TrainResult result = train(net, train_set, opt, config, rng);
  ASSERT_FALSE(result.val_losses.empty());
  if (result.stopped_early) {
    EXPECT_LT(result.val_losses.size(), 200u);
  }
  // The restored network achieves the recorded best validation loss.
  const double best_recorded = result.val_losses[result.best_epoch];
  EXPECT_NEAR(evaluate(net, val_set), best_recorded, 1e-9);
}

}  // namespace
}  // namespace cvsafe::nn

namespace cvsafe::planners {
namespace {

const vehicle::VehicleLimits kEgo{0.0, 15.0, -6.0, 3.0};
const vehicle::VehicleLimits kC1{2.0, 15.0, -3.0, 3.0};

std::shared_ptr<const scenario::LeftTurnScenario> make_scenario() {
  return std::make_shared<const scenario::LeftTurnScenario>(
      scenario::LeftTurnGeometry{}, kEgo, kC1, 0.05);
}

TrainingOptions small_options(std::uint64_t seed) {
  TrainingOptions o;
  o.num_samples = 2000;
  o.epochs = 10;
  o.seed = seed;
  return o;
}

TEST(Ensemble, MembersDifferAndMeanIsBetween) {
  const auto scn = make_scenario();
  const auto members = train_planner_ensemble(
      *scn, PlannerStyle::kConservative, 3, small_options(9000));
  ASSERT_EQ(members.size(), 3u);
  EXPECT_NE(members[0].get(), members[1].get());

  EnsemblePlanner planner(members, InputEncoding{}, "ensemble");
  scenario::LeftTurnWorld world;
  world.t = 0.0;
  world.ego = {-20.0, 8.0};
  world.tau1_nn = util::Interval{4.0, 8.0};
  const double mean = planner.plan(world);

  const auto x = InputEncoding{}.encode(0.0, -20.0, 8.0, world.tau1_nn);
  double lo = 1e9, hi = -1e9;
  nn::Workspace ws;
  for (const auto& m : members) {
    const double y = m->predict_scalar(x, ws);
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  EXPECT_GE(mean, lo - 1e-9);
  EXPECT_LE(mean, hi + 1e-9);
  EXPECT_GE(planner.last_disagreement(), 0.0);
}

TEST(Ensemble, SigmaPenaltyIsConservative) {
  const auto scn = make_scenario();
  const auto members = train_planner_ensemble(
      *scn, PlannerStyle::kConservative, 3, small_options(9001));
  EnsemblePlanner plain(members, InputEncoding{}, "plain", 0.0);
  EnsemblePlanner averse(members, InputEncoding{}, "averse", 2.0);

  scenario::LeftTurnWorld world;
  world.t = 0.0;
  world.ego = {-20.0, 8.0};
  world.tau1_nn = util::Interval{4.0, 8.0};
  EXPECT_LE(averse.plan(world), plain.plan(world));
}

TEST(Ensemble, DisagreementHigherOffDistribution) {
  const auto scn = make_scenario();
  const auto members = train_planner_ensemble(
      *scn, PlannerStyle::kConservative, 4, small_options(9002));
  EnsemblePlanner planner(members, InputEncoding{}, "ensemble");

  // In-distribution state.
  scenario::LeftTurnWorld in;
  in.t = 0.0;
  in.ego = {-20.0, 8.0};
  in.tau1_nn = util::Interval{4.0, 8.0};
  planner.plan(in);
  const double d_in = planner.last_disagreement();

  // Absurd off-distribution state (far outside the sampled ranges).
  scenario::LeftTurnWorld out;
  out.t = 0.0;
  out.ego = {-200.0, 14.9};
  out.tau1_nn = util::Interval{28.0, 29.0};
  planner.plan(out);
  const double d_out = planner.last_disagreement();
  EXPECT_GT(d_out, d_in);
}

}  // namespace
}  // namespace cvsafe::planners
