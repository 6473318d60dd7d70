// Adversarial safety probe: the embedded "planner" is a worst-case
// adversary that KNOWS the exact oncoming-vehicle state and, every step,
// picks the acceleration that brings the ego closest to a collision.
// Wrapped in the compound planner, the system must still never collide —
// this is the sharpest empirical statement of the Section III-E theorem,
// far beyond what any real NN planner would attempt.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/scenario/safety_model.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

namespace cvsafe::eval {
namespace {

using scenario::LeftTurnWorld;

/// Picks, among sampled feasible accelerations, the one whose next state
/// minimizes the time-distance between the ego's occupancy and the TRUE
/// position of the oncoming vehicle (injected out-of-band). A planner
/// deliberately built to cause a crash.
class AdversarialPlanner final : public core::PlannerBase<LeftTurnWorld> {
 public:
  AdversarialPlanner(std::shared_ptr<const scenario::LeftTurnScenario> scn)
      : scn_(std::move(scn)) {}

  void set_truth(const vehicle::VehicleState& c1) { c1_truth_ = c1; }

  double plan(const LeftTurnWorld& world) override {
    const auto& lim = scn_->ego_limits();
    const double dt = scn_->control_period();
    const vehicle::DoubleIntegrator dyn(lim);
    double best_a = lim.a_max;
    double best_score = 1e18;
    for (int i = 0; i <= 20; ++i) {
      const double a = lim.a_min + (lim.a_max - lim.a_min) * i / 20.0;
      const auto next = dyn.step(world.ego, a, dt);
      // Score: projected |ego zone time - C1 zone time| — the adversary
      // wants to be in the zone exactly when C1 is.
      const auto& g = scn_->geometry();
      const double ego_mid = 0.5 * (g.ego_front + g.ego_back);
      const double c1_mid = 0.5 * (g.c1_front + g.c1_back);
      const double t_ego = next.v > 0.1
                               ? (ego_mid - next.p) / next.v
                               : 1e9;
      const double t_c1 = c1_truth_.v > 0.1
                              ? (c1_mid - c1_truth_.p) / c1_truth_.v
                              : 1e9;
      const double score = std::abs(t_ego - t_c1);
      if (score < best_score) {
        best_score = score;
        best_a = a;
      }
    }
    return best_a;
  }

  std::string_view name() const override { return "adversary"; }

 private:
  std::shared_ptr<const scenario::LeftTurnScenario> scn_;
  vehicle::VehicleState c1_truth_{};
};

struct AdversarialOutcome {
  bool collided = false;
  std::size_t emergency_steps = 0;
  std::size_t steps = 0;
};

AdversarialOutcome run_adversarial_episode(const sim::LeftTurnSimConfig& config,
                                           bool use_compound,
                                           std::uint64_t seed) {
  const auto scn = config.make_scenario();
  util::Rng rng(seed);

  const auto& wl = config.workload;
  const auto grid_idx = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(wl.p1_grid.size()) - 1));
  vehicle::VehicleState c1{
      scenario::LeftTurnGeometry::oncoming_to_frame(wl.p1_grid[grid_idx]),
      rng.uniform(wl.v1_init_min, wl.v1_init_max)};
  const auto steps =
      static_cast<std::size_t>(config.horizon / config.dt_c);
  const auto profile = vehicle::AccelProfile::random(
      steps, config.dt_c, c1.v, config.c1_limits, {}, rng);

  auto adversary = std::make_shared<AdversarialPlanner>(scn);
  std::shared_ptr<core::PlannerBase<LeftTurnWorld>> planner = adversary;
  core::CompoundPlanner<LeftTurnWorld>* compound = nullptr;
  if (use_compound) {
    auto model = std::make_shared<scenario::LeftTurnSafetyModel>(scn);
    auto c = std::make_shared<core::CompoundPlanner<LeftTurnWorld>>(
        adversary, std::move(model));
    compound = c.get();
    planner = c;
  }

  vehicle::DoubleIntegrator ego_dyn(config.ego_limits);
  vehicle::DoubleIntegrator c1_dyn(config.c1_limits);
  vehicle::VehicleState ego{config.geometry.ego_start, config.ego_v0};
  sensing::Sensor sensor(config.sensor);
  comm::Channel channel(config.comm);
  filter::InformationFilter monitor_est(config.c1_limits, config.sensor,
                                        filter::InfoFilterOptions::basic());

  AdversarialOutcome out;
  for (std::size_t step = 0; step < steps; ++step) {
    const double t = static_cast<double>(step) * config.dt_c;
    const double a1 = profile.at(step);
    const vehicle::VehicleSnapshot snap{t, c1, a1};
    channel.offer(comm::Message{1, snap}, rng);
    for (const auto& msg : channel.collect(t)) monitor_est.on_message(msg);
    if (const auto r = sensor.sense(snap, rng)) monitor_est.on_sensor(*r);

    adversary->set_truth(c1);  // the adversary cheats with exact truth
    LeftTurnWorld world;
    world.t = t;
    world.ego = ego;
    world.c1_monitor = monitor_est.estimate(t);
    world.tau1_monitor = scn->c1_window_conservative(world.c1_monitor);
    world.c1_nn = world.c1_monitor;
    world.tau1_nn = world.tau1_monitor;

    const double a0 = planner->plan(world);
    ++out.steps;
    if (compound != nullptr && compound->last_was_emergency()) {
      ++out.emergency_steps;
    }
    ego = ego_dyn.step(ego, a0, config.dt_c);
    c1 = c1_dyn.step(c1, a1, config.dt_c);
    if (scn->collision(ego.p, c1.p)) {
      out.collided = true;
      break;
    }
    if (scn->ego_reached_target(ego.p)) break;
  }
  return out;
}

TEST(Adversarial, UnprotectedAdversaryDoesCollide) {
  // Sanity: the adversary is genuinely dangerous without the framework.
  const auto config = sim::LeftTurnSimConfig::paper_defaults();
  std::size_t collisions = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    if (run_adversarial_episode(config, /*use_compound=*/false, seed)
            .collided) {
      ++collisions;
    }
  }
  EXPECT_GT(collisions, 20u);
}

class AdversarialSafety : public ::testing::TestWithParam<int> {};

TEST_P(AdversarialSafety, CompoundContainsTheAdversary) {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  switch (GetParam()) {
    case 0: break;  // no disturbance
    case 1:
      config.comm = comm::CommConfig::delayed(0.6, 0.25);
      break;
    case 2:
      config.comm = comm::CommConfig::messages_lost();
      config.sensor = sensing::SensorConfig::uniform(4.0);
      break;
    case 3:
      config.comm = comm::CommConfig::bursty(0.5, 8.0, 0.25);
      break;
    default: break;
  }
  std::size_t emergency_total = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    const auto out =
        run_adversarial_episode(config, /*use_compound=*/true, seed);
    ASSERT_FALSE(out.collided) << "seed " << seed;
    emergency_total += out.emergency_steps;
  }
  // Containing an active adversary requires real interventions.
  EXPECT_GT(emergency_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Channels, AdversarialSafety,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace cvsafe::eval
