// Tutorial: wrapping YOUR OWN scenario with the framework, from scratch.
//
// The compound planner is generic over a World type plus two interfaces
// (PlannerBase, SafetyModelBase). This example builds a minimal new
// scenario — a pedestrian crossing — in ~100 lines: the ego approaches a
// crosswalk that a pedestrian may occupy during some time window, known
// only as an interval (e.g. from an infrastructure message). A cruise
// planner that ignores the pedestrian entirely becomes provably safe
// once wrapped.
//
// This mirrors how the library's left-turn and lane-change scenarios are
// built; use it as the template for your own.

#include <cstdio>
#include <memory>
#include <string_view>

#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/util/interval.hpp"
#include "cvsafe/util/kinematics.hpp"
#include "cvsafe/util/rng.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

namespace {

using namespace cvsafe;

// ---- 1. The world your planners observe -----------------------------------
struct CrossingWorld {
  double t = 0.0;
  vehicle::VehicleState ego;
  util::Interval pedestrian;  ///< time window the crosswalk may be occupied
};

// ---- 2. Scenario constants -------------------------------------------------
constexpr double kCrosswalkFront = 30.0;  ///< [m]
constexpr double kCrosswalkBack = 33.0;
constexpr double kTarget = 45.0;
const vehicle::VehicleLimits kEgoLimits{0.0, 14.0, -5.0, 2.5};
constexpr double kDt = 0.05;

// ---- 3. The embedded planner (deliberately oblivious) ---------------------
class CruisePlanner final : public core::PlannerBase<CrossingWorld> {
 public:
  double plan(const CrossingWorld& world) override {
    return 2.0 * (12.0 - world.ego.v);  // track 12 m/s, ignore pedestrians
  }
  std::string_view name() const override { return "cruise"; }
};

// ---- 4. The safety model: X_u, X_b, kappa_e -------------------------------
//
// Deliberately the SIMPLEST sound design: while the pedestrian window has
// not yet passed, the ego must retain the ability to stop short of the
// crosswalk, so X_b is the last-moment-to-brake band — no "pass ahead of
// the pedestrian" credit. (Allowing pass-ahead safely requires monitoring
// committed states too; see LeftTurnScenario::resolvable for the full
// treatment and DESIGN.md §3 for why the naive version is a trap.)
class CrossingSafetyModel final
    : public core::SafetyModelBase<CrossingWorld> {
 public:
  static bool window_active(const CrossingWorld& w) {
    return !w.pedestrian.empty() && w.pedestrian.hi > w.t;
  }

  bool in_unsafe_set(const CrossingWorld& w) const override {
    // Committed to the crosswalk (cannot stop short) while the pedestrian
    // may still be on it.
    const double d_b = util::braking_distance(w.ego.v, kEgoLimits.a_min);
    return window_active(w) && w.ego.p <= kCrosswalkBack &&
           w.ego.p + d_b > kCrosswalkFront;
  }

  bool in_boundary_safe_set(const CrossingWorld& w) const override {
    if (!window_active(w)) return false;
    if (w.ego.p > kCrosswalkBack) return false;
    // Last-moment-to-brake band: one more step of any feasible control
    // could make stopping short impossible.
    const double slack = kCrosswalkFront -
                         util::braking_distance(w.ego.v, kEgoLimits.a_min) -
                         w.ego.p;
    const double margin =
        (w.ego.v * kDt + 0.5 * kEgoLimits.a_max * kDt * kDt) *
        (1.0 - kEgoLimits.a_max / kEgoLimits.a_min);
    return slack >= 0.0 && slack < margin;
  }

  double emergency_accel(const CrossingWorld& w) const override {
    if (w.ego.p > kCrosswalkFront) return kEgoLimits.a_max;  // clear it
    const double gap = kCrosswalkFront - w.ego.p;
    if (gap <= 1e-9) return w.ego.v <= 1e-9 ? 0.0 : kEgoLimits.a_min;
    return std::max(kEgoLimits.a_min,
                    -(w.ego.v * w.ego.v) / (2.0 * gap));
  }

  std::string_view boundary_reason(const CrossingWorld&) const override {
    return "pedestrian window";
  }
};

// ---- 5. Close the loop ------------------------------------------------------
struct Outcome {
  bool hit = false;
  bool reached = false;
  double reach_time = 0.0;
  std::size_t emergency = 0;
};

Outcome run(bool wrapped, std::uint64_t seed) {
  util::Rng rng(seed);
  // The pedestrian occupies the crosswalk during a random window.
  const double ped_start = rng.uniform(0.5, 4.0);
  const util::Interval pedestrian{ped_start,
                                  ped_start + rng.uniform(1.0, 3.0)};

  auto cruise = std::make_shared<CruisePlanner>();
  std::shared_ptr<core::PlannerBase<CrossingWorld>> planner = cruise;
  core::CompoundPlanner<CrossingWorld>* compound = nullptr;
  if (wrapped) {
    auto c = std::make_shared<core::CompoundPlanner<CrossingWorld>>(
        cruise, std::make_shared<CrossingSafetyModel>());
    compound = c.get();
    planner = c;
  }

  vehicle::DoubleIntegrator dyn(kEgoLimits);
  vehicle::VehicleState ego{0.0, rng.uniform(8.0, 12.0)};
  Outcome out;
  for (int step = 0; step < 600; ++step) {
    const double t = step * kDt;
    CrossingWorld world{t, ego, pedestrian};
    const double a = planner->plan(world);
    if (compound != nullptr && compound->last_was_emergency()) {
      ++out.emergency;
    }
    ego = dyn.step(ego, a, kDt);
    const bool on_crosswalk =
        ego.p > kCrosswalkFront && ego.p < kCrosswalkBack;
    if (on_crosswalk && pedestrian.contains(t + kDt)) {
      out.hit = true;
      break;
    }
    if (ego.p >= kTarget) {
      out.reached = true;
      out.reach_time = t + kDt;
      break;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf("%-10s %-6s %-5s %-8s %-8s %s\n", "planner", "seed", "hit",
              "reached", "t_r", "emergency steps");
  std::size_t hits_raw = 0;
  std::size_t hits_wrapped = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Outcome raw = run(false, seed);
    const Outcome wrapped = run(true, seed);
    hits_raw += raw.hit;
    hits_wrapped += wrapped.hit;
    std::printf("%-10s %-6llu %-5s %-8s %-8.2f -\n", "raw",
                static_cast<unsigned long long>(seed),
                raw.hit ? "YES" : "no", raw.reached ? "yes" : "no",
                raw.reach_time);
    std::printf("%-10s %-6llu %-5s %-8s %-8.2f %zu\n", "wrapped",
                static_cast<unsigned long long>(seed),
                wrapped.hit ? "YES" : "no", wrapped.reached ? "yes" : "no",
                wrapped.reach_time, wrapped.emergency);
  }
  std::printf("\npedestrian hits: raw %zu/15, wrapped %zu/15\n", hits_raw,
              hits_wrapped);
  return hits_wrapped == 0 ? 0 : 1;
}
