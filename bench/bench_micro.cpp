// Micro-benchmarks (google-benchmark): per-component latency of the
// runtime pipeline. The paper argues the compound planner "does not
// require extra resources for safety verification during runtime"; these
// numbers quantify the per-control-step cost of every stage.

#include <benchmark/benchmark.h>

#include <memory>

#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/filter/kalman.hpp"
#include "cvsafe/filter/reachability.hpp"
#include "cvsafe/planners/training.hpp"
#include "cvsafe/scenario/intersection.hpp"
#include "cvsafe/scenario/multi_vehicle.hpp"

using namespace cvsafe;

namespace {

const sim::LeftTurnSimConfig& config() {
  static const auto cfg = sim::LeftTurnSimConfig::paper_defaults();
  return cfg;
}

std::shared_ptr<const scenario::LeftTurnScenario> shared_scenario() {
  static const auto scn = config().make_scenario();
  return scn;
}

std::shared_ptr<const nn::Mlp> shared_net() {
  static const auto net = planners::cached_planner_network(
      *shared_scenario(), planners::PlannerStyle::kConservative);
  return net;
}

void BM_KalmanUpdate(benchmark::State& state) {
  filter::KalmanFilter kf({0.1, 1.0, 1.0, 1.0, 3.0, 64});
  util::Rng rng(1);
  double t = 0.0;
  for (auto _ : state) {
    sensing::SensorReading r{t, -50.0 + 9.0 * t + rng.uniform(-1.0, 1.0),
                             9.0 + rng.uniform(-1.0, 1.0),
                             rng.uniform(-1.0, 1.0)};
    kf.update(r);
    benchmark::DoNotOptimize(kf.state_at(t));
    t += 0.1;
  }
}
BENCHMARK(BM_KalmanUpdate);

void BM_KalmanMessageRollback(benchmark::State& state) {
  util::Rng rng(1);
  filter::KalmanFilter kf({0.1, 1.0, 1.0, 1.0, 3.0, 64});
  double t = 0.0;
  // Pre-fill history.
  for (int i = 0; i < 64; ++i) {
    kf.update({t, -50.0 + 9.0 * t, 9.0, 0.0});
    t += 0.1;
  }
  for (auto _ : state) {
    state.PauseTiming();
    filter::KalmanFilter copy = kf;
    const double t_k = t - rng.uniform(0.3, 3.0);
    state.ResumeTiming();
    copy.correct_with_message(t_k, -50.0 + 9.0 * t_k, 9.0, 0.0);
    benchmark::DoNotOptimize(copy.state_at(t));
  }
}
BENCHMARK(BM_KalmanMessageRollback);

void BM_ReachabilityPropagate(benchmark::State& state) {
  const vehicle::VehicleLimits limits{2.0, 15.0, -3.0, 3.0};
  const auto bounds = filter::StateBounds::exact(0.0, -50.0, 9.0);
  double dt = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::propagate(bounds, dt, limits));
    dt = dt < 3.0 ? dt + 0.05 : 0.05;
  }
}
BENCHMARK(BM_ReachabilityPropagate);

void BM_WindowConservative(benchmark::State& state) {
  const auto scn = shared_scenario();
  filter::StateEstimate est;
  est.t = 1.0;
  est.p = util::Interval{-45.0, -43.0};
  est.v = util::Interval{8.0, 10.0};
  est.p_hat = -44.0;
  est.v_hat = 9.0;
  est.valid = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scn->c1_window_conservative(est));
  }
}
BENCHMARK(BM_WindowConservative);

void BM_WindowAggressive(benchmark::State& state) {
  const auto scn = shared_scenario();
  filter::StateEstimate est;
  est.t = 1.0;
  est.p = util::Interval{-45.0, -43.0};
  est.v = util::Interval{8.0, 10.0};
  est.p_hat = -44.0;
  est.v_hat = 9.0;
  est.valid = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scn->c1_window_aggressive(est, scenario::AggressiveBuffers{}));
  }
}
BENCHMARK(BM_WindowAggressive);

void BM_BoundaryCheck(benchmark::State& state) {
  const auto scn = shared_scenario();
  const util::Interval tau1{3.0, 6.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scn->in_boundary_safe_set(1.0, -10.0, 9.0, tau1));
  }
}
BENCHMARK(BM_BoundaryCheck);

void BM_NnForward(benchmark::State& state) {
  const auto net = shared_net();
  const std::vector<double> x{-0.5, 0.6, 0.3, 0.7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->predict(x));
  }
}
BENCHMARK(BM_NnForward);

void BM_AgentControlStep(benchmark::State& state) {
  const auto bp = eval::make_nn_blueprint(
      config(), planners::PlannerStyle::kConservative,
      eval::PlannerVariant::kUltimate);
  auto agent = bp.make();
  // Warm the estimators.
  agent->observe_sensor({0.0, -50.0, 9.0, 0.0});
  agent->observe_message(
      comm::Message{1, vehicle::VehicleSnapshot{0.0, {-50.0, 9.0}, 0.0}});
  double t = 0.1;
  vehicle::VehicleState ego{-30.0, 8.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent->act(t, ego));
    t += 0.05;
    if (t > 20.0) t = 0.1;
  }
}
BENCHMARK(BM_AgentControlStep);

void BM_MultiVehicleBoundaryCheck(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const scenario::MultiVehicleLeftTurn math(shared_scenario());
  std::vector<filter::StateEstimate> cars;
  for (std::size_t i = 0; i < n; ++i) {
    filter::StateEstimate est;
    est.t = 1.0;
    est.p = util::Interval{-45.0 - 25.0 * static_cast<double>(i),
                           -43.0 - 25.0 * static_cast<double>(i)};
    est.v = util::Interval{8.0, 10.0};
    est.p_hat = est.p.mid();
    est.v_hat = 9.0;
    est.valid = true;
    cars.push_back(est);
  }
  const util::IntervalSet tau = math.conservative_windows(cars);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math.in_boundary_safe_set(1.0, -10.0, 9.0, tau));
  }
}
BENCHMARK(BM_MultiVehicleBoundaryCheck)->Arg(1)->Arg(4)->Arg(16);

void BM_IntersectionBoundaryCheck(benchmark::State& state) {
  const scenario::IntersectionScenario scn(
      scenario::IntersectionGeometry{}, config().ego_limits, 0.05);
  scenario::IntersectionWorld w;
  w.t = 1.0;
  w.ego = {-10.0, 9.0};
  w.tau_a = util::IntervalSet{{3.0, 5.0}, {9.0, 11.0}};
  w.tau_b = util::IntervalSet{{2.5, 4.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scn.in_boundary_safe_set(w));
  }
}
BENCHMARK(BM_IntersectionBoundaryCheck);

void BM_FullEpisode(benchmark::State& state) {
  const auto bp = eval::make_nn_blueprint(
      config(), planners::PlannerStyle::kConservative,
      eval::PlannerVariant::kUltimate);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_left_turn_simulation(config(), bp, seed++));
  }
}
BENCHMARK(BM_FullEpisode);

}  // namespace
