// Pins the allocation-free intersection and multi-vehicle monitors to the
// world-copying formulation they replaced. The reference below keeps that
// formulation verbatim: every query on the windows remaining at t goes
// through IntervalSet::after(t), every one-step look-ahead copies the
// whole world, and every window union, shrink and bias is built into a
// fresh set. The production code must reproduce it bit for bit on seeded
// random worlds that include empty sets, touching and overlapping
// windows, windows that end before t, t exactly on a part boundary, an
// ego inside each zone, and 1-4 oncoming cars.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "cvsafe/core/planner.hpp"
#include "cvsafe/scenario/intersection.hpp"
#include "cvsafe/scenario/multi_vehicle.hpp"
#include "cvsafe/scenario/safety_model.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/util/kinematics.hpp"
#include "cvsafe/util/rng.hpp"

namespace cvsafe::scenario {
namespace {

using util::Interval;
using util::IntervalSet;
using util::Rng;

constexpr int kWorlds = 12000;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const Interval& a, const Interval& b) {
  return same_bits(a.lo, b.lo) && same_bits(a.hi, b.hi);
}

bool same_bits(const IntervalSet& a, const IntervalSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

// --- Reference: the world-copying intersection monitor -------------------

class ReferenceIntersection {
 public:
  explicit ReferenceIntersection(const IntersectionScenario& scn)
      : scn_(scn) {}

  bool full_throttle_clear(const IntersectionWorld& w) const {
    const auto& g = scn_.geometry();
    const Interval occ_a = scn_.full_throttle_occupancy(
        w.t, w.ego.p, w.ego.v, g.zone_a_front, g.zone_a_back);
    const Interval occ_b = scn_.full_throttle_occupancy(
        w.t, w.ego.p, w.ego.v, g.zone_b_front, g.zone_b_back);
    return !w.tau_a.intersects(occ_a) && !w.tau_b.intersects(occ_b);
  }

  bool resolvable(const IntersectionWorld& w) const {
    if (full_throttle_clear(w)) return true;
    const auto line = next_stop_line(w.ego.p);
    if (!line) return false;
    const double slack =
        *line - util::braking_distance(w.ego.v, scn_.ego_limits().a_min) -
        w.ego.p;
    return slack >= 0.0;
  }

  bool in_boundary_safe_set(const IntersectionWorld& w) const {
    const auto& ego = scn_.ego_limits();
    const double dt_c = scn_.control_period();
    if (w.ego.p > scn_.geometry().zone_b_back) return false;
    if (w.tau_a.after(w.t).empty() && w.tau_b.after(w.t).empty()) {
      return false;
    }
    if (!resolvable(w)) return true;
    constexpr int kSamples = 33;
    for (int i = 0; i < kSamples; ++i) {
      const double a =
          ego.a_min + (ego.a_max - ego.a_min) * i / (kSamples - 1);
      const double cap = a >= 0.0 ? ego.v_max : ego.v_min;
      IntersectionWorld next = w;
      next.t = w.t + dt_c;
      next.ego.p =
          w.ego.p + util::displacement_with_speed_cap(w.ego.v, a, dt_c, cap);
      next.ego.v = ego.clamp_speed(util::speed_after(w.ego.v, a, dt_c, cap));
      if (!resolvable(next)) return true;
    }
    return false;
  }

  double emergency_accel(const IntersectionWorld& w) const {
    const auto& ego = scn_.ego_limits();
    if (full_throttle_clear(w)) return ego.a_max;
    if (const auto line = next_stop_line(w.ego.p)) {
      const double gap = *line - w.ego.p;
      if (gap <= 1e-9) return w.ego.v <= 1e-9 ? 0.0 : ego.a_min;
      return std::max(ego.a_min, -(w.ego.v * w.ego.v) / (2.0 * gap));
    }
    return ego.a_max;
  }

 private:
  std::optional<double> next_stop_line(double p) const {
    const auto& g = scn_.geometry();
    if (p <= g.zone_a_front) return g.zone_a_front;
    if (p >= g.zone_a_back && p <= g.zone_b_front) return g.zone_b_front;
    return std::nullopt;
  }

  const IntersectionScenario& scn_;
};

// --- Reference: the after()-based multi-vehicle monitor ------------------

class ReferenceMulti {
 public:
  explicit ReferenceMulti(const LeftTurnScenario& base) : base_(base) {}

  IntervalSet conservative_windows(
      const std::vector<filter::StateEstimate>& oncoming) const {
    IntervalSet tau;
    for (const auto& est : oncoming) {
      tau.insert(base_.c1_window_conservative(est));
    }
    return tau;
  }

  IntervalSet aggressive_windows(
      const std::vector<filter::StateEstimate>& oncoming,
      const AggressiveBuffers& buffers) const {
    IntervalSet tau;
    for (const auto& est : oncoming) {
      tau.insert(base_.c1_window_aggressive(est, buffers));
    }
    return tau;
  }

  bool resolvable(double t, double p0, double v0,
                  const IntervalSet& tau) const {
    const IntervalSet remaining = tau.after(t);
    if (remaining.empty()) return true;
    const auto& g = base_.geometry();
    if (p0 > g.ego_back) return true;
    const Interval occupancy = full_throttle_occupancy(t, p0, v0);
    if (!remaining.intersects(occupancy) &&
        occupancy.hi <= remaining.min()) {
      return true;
    }
    if (p0 >= g.ego_front) return false;
    const auto& lim = base_.ego_limits();
    const double entry_mb =
        t + util::time_to_travel(g.ego_front - p0, v0, lim.a_min,
                                 std::max(lim.v_min, 0.0));
    return entry_mb >= remaining.max();
  }

  bool in_boundary_safe_set(double t, double p0, double v0,
                            const IntervalSet& tau) const {
    if (tau.after(t).empty()) return false;
    const auto& g = base_.geometry();
    const auto& lim = base_.ego_limits();
    const double dt_c = base_.control_period();
    const auto step_to = [&](double a, double& p_next, double& v_next) {
      const double cap = a >= 0.0 ? lim.v_max : lim.v_min;
      p_next = p0 + util::displacement_with_speed_cap(v0, a, dt_c, cap);
      v_next = lim.clamp_speed(util::speed_after(v0, a, dt_c, cap));
    };
    constexpr int kAccelSamples = 33;
    const auto any_step_unresolvable = [&](bool require_commit) {
      for (int i = 0; i < kAccelSamples; ++i) {
        const double a =
            lim.a_min + (lim.a_max - lim.a_min) * i / (kAccelSamples - 1);
        double p_next;
        double v_next;
        step_to(a, p_next, v_next);
        if (require_commit && base_.slack(p_next, v_next) >= 0.0) continue;
        if (!resolvable(t + dt_c, p_next, v_next, tau)) return true;
      }
      return false;
    };
    if (p0 <= g.ego_front) {
      const double s = base_.slack(p0, v0);
      if (s < 0.0) return any_step_unresolvable(false);
      const double margin = (v0 * dt_c + 0.5 * lim.a_max * dt_c * dt_c) *
                            (1.0 - lim.a_max / lim.a_min);
      if (s >= margin) return false;
      if (tau.intersects(base_.ego_passing_window(t, p0, v0))) return true;
      return any_step_unresolvable(true);
    }
    if (p0 <= g.ego_back) {
      const double v_worst = std::max(v0 + lim.a_min * dt_c, lim.v_min);
      const double p_worst =
          p0 + std::max(0.0, v0 * dt_c + 0.5 * lim.a_min * dt_c * dt_c);
      const Interval tau0_worst = base_.ego_passing_window(
          t + dt_c, std::min(p_worst, g.ego_back), v_worst);
      return tau.intersects(tau0_worst);
    }
    return false;
  }

  double emergency_accel(double t, double p0, double v0,
                         const IntervalSet& tau) const {
    const auto& g = base_.geometry();
    const auto& lim = base_.ego_limits();
    if (p0 > g.ego_front) return lim.a_max;
    const double s = base_.slack(p0, v0);
    if (s >= 0.0) {
      const double gap = g.ego_front - p0;
      if (gap <= 1e-9) return v0 <= 1e-9 ? 0.0 : lim.a_min;
      return std::max(lim.a_min, -(v0 * v0) / (2.0 * gap));
    }
    const IntervalSet remaining = tau.after(t);
    if (remaining.empty()) return lim.a_max;
    const Interval occupancy = full_throttle_occupancy(t, p0, v0);
    if (!remaining.intersects(occupancy) &&
        occupancy.hi <= remaining.min()) {
      return lim.a_max;
    }
    return lim.a_min;
  }

  LeftTurnMultiWorld shrink(const LeftTurnMultiWorld& world,
                            const AggressiveBuffers& buffers) const {
    LeftTurnMultiWorld shrunk = world;
    shrunk.tau_nn = aggressive_windows(world.oncoming_nn, buffers);
    return shrunk;
  }

  static LeftTurnMultiWorld bias(const LeftTurnMultiWorld& world) {
    LeftTurnMultiWorld biased = world;
    IntervalSet padded;
    for (const auto& w : world.tau_monitor) {
      padded.insert(w.inflated(LeftTurnSafetyModel::kEmergencyBias));
    }
    biased.tau_monitor = padded;
    return biased;
  }

  /// FirstConflictAdapter's window: the first part of tau_nn.after(t).
  static Interval first_conflict(const LeftTurnMultiWorld& world) {
    const IntervalSet upcoming = world.tau_nn.after(world.t);
    return upcoming.empty() ? Interval::empty_interval() : upcoming[0];
  }

 private:
  Interval full_throttle_occupancy(double t, double p0, double v0) const {
    const auto& g = base_.geometry();
    const auto& lim = base_.ego_limits();
    if (p0 > g.ego_back) return Interval::empty_interval();
    const double entry =
        p0 >= g.ego_front
            ? t
            : t + util::time_to_travel(g.ego_front - p0, v0, lim.a_max,
                                       lim.v_max);
    const double exit = t + util::time_to_travel(g.ego_back - p0 + 1e-3, v0,
                                                 lim.a_max, lim.v_max);
    return Interval{entry, exit};
  }

  const LeftTurnScenario& base_;
};

// --- Random worlds ---------------------------------------------------------

/// 0-4 windows around \p t: some end before t, some touch (the next one
/// starts exactly where the last ended), some overlap, some are points.
IntervalSet random_windows(Rng& rng, double t) {
  IntervalSet tau;
  const auto n = rng.uniform_int(0, 4);
  double cursor = t + rng.uniform(-4.0, 3.0);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto shape = rng.uniform_int(0, 3);
    double lo = cursor + rng.uniform(0.0, 2.0);
    if (shape == 0) lo = cursor;                        // touching
    if (shape == 1) lo = cursor - rng.uniform(0.0, 1.0);  // overlapping
    const double hi = shape == 2 ? lo : lo + rng.uniform(0.05, 4.0);
    tau.insert(Interval{lo, hi});
    cursor = hi;
  }
  if (rng.bernoulli(0.05)) tau.insert(Interval{t, 1e18});  // no information
  return tau;
}

/// A query time: random, or exactly on an endpoint of one of \p sets.
double random_time(Rng& rng, std::initializer_list<const IntervalSet*> sets,
                   double t) {
  if (!rng.bernoulli(0.3)) return t;
  std::vector<double> ends;
  for (const IntervalSet* s : sets) {
    for (const Interval& part : *s) {
      ends.push_back(part.lo);
      ends.push_back(part.hi);
    }
  }
  if (ends.empty()) return t;
  return ends[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ends.size()) - 1))];
}

TEST(MonitorReference, IntersectionMatchesWorldCopyingMonitor) {
  const sim::IntersectionSimConfig config;
  const auto scn = config.make_scenario();
  const ReferenceIntersection ref(*scn);
  const IntersectionSafetyModel model(scn);
  const auto& g = scn->geometry();
  const auto& lim = scn->ego_limits();
  Rng rng(20260);
  std::size_t boundary = 0;
  std::size_t unresolvable = 0;
  for (int k = 0; k < kWorlds; ++k) {
    IntersectionWorld w;
    const double t0 = rng.uniform(0.0, 12.0);
    w.tau_a = random_windows(rng, t0);
    w.tau_b = random_windows(rng, t0);
    w.t = random_time(rng, {&w.tau_a, &w.tau_b}, t0);
    switch (rng.uniform_int(0, 4)) {
      case 0:  // inside zone A
        w.ego.p = rng.uniform(g.zone_a_front, g.zone_a_back);
        break;
      case 1:  // inside zone B
        w.ego.p = rng.uniform(g.zone_b_front, g.zone_b_back);
        break;
      case 2:  // median gap, stop lines included
        w.ego.p = rng.bernoulli(0.2) ? g.zone_a_front
                                     : rng.uniform(g.zone_a_back,
                                                   g.zone_b_front);
        break;
      default:
        w.ego.p = rng.uniform(g.ego_start, g.ego_target + 2.0);
    }
    w.ego.v = rng.bernoulli(0.1) ? 0.0 : rng.uniform(lim.v_min, lim.v_max);

    const bool ref_resolvable = ref.resolvable(w);
    ASSERT_EQ(scn->resolvable(w.t, w.ego, w.tau_a, w.tau_b), ref_resolvable)
        << "world " << k;
    ASSERT_EQ(model.in_unsafe_set(w), !ref_resolvable) << "world " << k;
    const bool ref_boundary = ref.in_boundary_safe_set(w);
    ASSERT_EQ(model.in_boundary_safe_set(w), ref_boundary) << "world " << k;
    ASSERT_TRUE(same_bits(model.emergency_accel(w), ref.emergency_accel(w)))
        << "world " << k;
    boundary += ref_boundary ? 1 : 0;
    unresolvable += ref_resolvable ? 0 : 1;
  }
  // The draw reaches every verdict, not just the easy ones.
  EXPECT_GT(boundary, static_cast<std::size_t>(kWorlds / 20));
  EXPECT_GT(unresolvable, static_cast<std::size_t>(kWorlds / 20));
}

/// Records the single-vehicle view FirstConflictAdapter hands its planner.
class RecordingPlanner final : public core::PlannerBase<LeftTurnWorld> {
 public:
  double plan(const LeftTurnWorld& world) override {
    seen = world;
    return 0.0;
  }
  std::string_view name() const override { return "recording"; }
  LeftTurnWorld seen;
};

filter::StateEstimate random_estimate(Rng& rng, double t,
                                      const LeftTurnGeometry& g) {
  filter::StateEstimate est;
  est.t = t;
  est.valid = !rng.bernoulli(0.05);
  const double p = rng.uniform(g.c1_front - 120.0, g.c1_back + 5.0);
  const double v = rng.uniform(2.0, 15.0);
  est.p = Interval{p - rng.uniform(0.0, 4.0), p};
  est.v = Interval{std::max(2.0, v - rng.uniform(0.0, 3.0)), v};
  est.p_hat = p;
  est.v_hat = v;
  est.a_hat = rng.uniform(-3.0, 3.0);
  return est;
}

TEST(MonitorReference, MultiVehicleMatchesAfterBasedMonitor) {
  const auto config = sim::LeftTurnSimConfig::paper_defaults();
  const auto base = config.make_scenario();
  const auto math = std::make_shared<const MultiVehicleLeftTurn>(base);
  const ReferenceMulti ref(*base);
  const auto& g = base->geometry();
  const auto& lim = base->ego_limits();
  const AggressiveBuffers buffers{0.5, 1.0};
  const MultiVehicleSafetyModel model(math, buffers);
  auto recording = std::make_shared<RecordingPlanner>();
  FirstConflictAdapter adapter(recording);

  Rng rng(20261);
  std::size_t boundary = 0;
  std::size_t unresolvable = 0;
  LeftTurnMultiWorld w;  // reused: windows are refilled in place
  for (int k = 0; k < kWorlds; ++k) {
    const double t0 = rng.uniform(0.0, 12.0);
    w.clear();
    const auto cars = rng.uniform_int(1, 4);
    for (std::int64_t i = 0; i < cars; ++i) {
      w.oncoming_monitor.push_back(random_estimate(rng, t0, g));
      w.oncoming_nn.push_back(random_estimate(rng, t0, g));
    }
    math->conservative_windows(w.oncoming_monitor, w.tau_monitor);
    math->conservative_windows(w.oncoming_nn, w.tau_nn);
    ASSERT_TRUE(same_bits(w.tau_monitor,
                          ref.conservative_windows(w.oncoming_monitor)))
        << "world " << k;
    ASSERT_TRUE(
        same_bits(w.tau_nn, ref.conservative_windows(w.oncoming_nn)))
        << "world " << k;
    // Half the worlds query hand-drawn windows, which touch, overlap and
    // end before t far more often than estimate-derived ones.
    if (rng.bernoulli(0.5)) {
      w.tau_monitor = random_windows(rng, t0);
      w.tau_nn = random_windows(rng, t0);
    }
    w.t = random_time(rng, {&w.tau_monitor, &w.tau_nn}, t0);
    w.ego.p = rng.bernoulli(0.3) ? rng.uniform(g.ego_front, g.ego_back)
                                 : rng.uniform(g.ego_start, g.ego_back + 3.0);
    w.ego.v = rng.bernoulli(0.1) ? 0.0 : rng.uniform(lim.v_min, lim.v_max);

    const double t = w.t;
    const double p0 = w.ego.p;
    const double v0 = w.ego.v;
    const IntervalSet& tau = w.tau_monitor;
    const bool ref_resolvable = ref.resolvable(t, p0, v0, tau);
    ASSERT_EQ(math->resolvable(t, p0, v0, tau), ref_resolvable)
        << "world " << k;
    const bool ref_boundary = ref.in_boundary_safe_set(t, p0, v0, tau);
    ASSERT_EQ(model.in_boundary_safe_set(w), ref_boundary) << "world " << k;
    ASSERT_TRUE(same_bits(model.emergency_accel(w),
                          ref.emergency_accel(t, p0, v0, tau)))
        << "world " << k;
    boundary += ref_boundary ? 1 : 0;
    unresolvable += ref_resolvable ? 0 : 1;

    // Shrink and bias transform a caller-owned copy in place.
    LeftTurnMultiWorld shrunk = w;
    model.shrink_for_planner(shrunk);
    const LeftTurnMultiWorld ref_shrunk = ref.shrink(w, buffers);
    ASSERT_TRUE(same_bits(shrunk.tau_nn, ref_shrunk.tau_nn)) << "world " << k;
    ASSERT_TRUE(same_bits(shrunk.tau_monitor, w.tau_monitor));
    LeftTurnMultiWorld biased = w;
    model.bias_for_emergency(biased);
    ASSERT_TRUE(
        same_bits(biased.tau_monitor, ReferenceMulti::bias(w).tau_monitor))
        << "world " << k;
    ASSERT_TRUE(same_bits(biased.tau_nn, w.tau_nn));

    // FirstConflictAdapter shows its planner the first upcoming window.
    adapter.plan(w);
    const Interval expected = ReferenceMulti::first_conflict(w);
    ASSERT_TRUE(same_bits(recording->seen.tau1_nn, expected)) << "world " << k;
    ASSERT_TRUE(same_bits(recording->seen.tau1_monitor, expected));
  }
  EXPECT_GT(boundary, static_cast<std::size_t>(kWorlds / 20));
  EXPECT_GT(unresolvable, static_cast<std::size_t>(kWorlds / 20));
}

}  // namespace
}  // namespace cvsafe::scenario
