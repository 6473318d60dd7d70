// Zero-allocation gate on the runtime monitor of the intersection and
// multi-vehicle scenarios: after one warm-up call, a compound-planner step
// (ladder armed, aggressive shrink on) and the per-step world reset of
// EpisodeRunner::observe_begin must not touch the heap — nor may emitting
// into an armed obs::Recorder, or into a growable one that a previous
// episode warmed, nor whole engine steps that read the traffic's
// acceleration profiles past their eager prefix, nor a warmed left-turn
// fleet pool's production cohort step. A global operator new that counts
// every allocation makes that observable.
//
// Worlds are chosen so the monitor's verdict does not switch between
// calls: a switch appends a SwitchEvent to the planner's log, which grows
// until it holds kMaxSwitchEvents. The event's reason is a view of static
// text, so once the log is full, switching allocates nothing either.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <vector>

#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/core/degradation.hpp"
#include "cvsafe/fault/fault_plan.hpp"
#include "cvsafe/filter/plausibility.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/planners/expert.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/scenario/intersection.hpp"
#include "cvsafe/scenario/multi_vehicle.hpp"
#include "cvsafe/sim/cruise_planner.hpp"
#include "cvsafe/sim/engine.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = std::max<std::size_t>(static_cast<std::size_t>(align),
                                              sizeof(void*));
  void* p = nullptr;
  return posix_memalign(&p, a, size ? size : a) == 0 ? p : nullptr;
}

}  // namespace

// A full replacement: malloc-backed new paired with free-backed delete,
// every sized, aligned and nothrow form included, so no allocation path
// escapes the counter and no memory crosses allocators (which the
// sanitizer runtimes would report). GCC cannot see the pairing once the
// replacements inline, hence the warning is silenced here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cvsafe {
namespace {

using scenario::IntersectionWorld;
using scenario::LeftTurnMultiWorld;
using util::Interval;
using util::IntervalSet;

template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

/// Fresh messages from consistent filters: the ladder stays at FULL, so
/// the aggressive shrink applies.
constexpr core::DegradationSignals kHealthy{0.0, true, true};
/// An inconsistent filter: the ladder drops to EMERGENCY-BIASED, so the
/// X_b test runs on the biased copy of the world.
constexpr core::DegradationSignals kInconsistent{0.0, true, false};

/// One warm-up plan(), then three more that must not allocate. The
/// verdict must hold on every call (no switch is recorded after warm-up).
template <typename World>
void expect_plan_allocation_free(core::CompoundPlanner<World>& planner,
                                 const World& world,
                                 const core::DegradationSignals& signals,
                                 bool emergency) {
  planner.note_signals(signals);
  planner.plan(world);
  ASSERT_EQ(planner.last_was_emergency(), emergency);
  for (int call = 0; call < 3; ++call) {
    planner.note_signals(signals);
    EXPECT_EQ(allocations_of([&] { planner.plan(world); }), 0u)
        << "call " << call;
    EXPECT_EQ(planner.last_was_emergency(), emergency);
  }
}

std::shared_ptr<core::CompoundPlanner<IntersectionWorld>> intersection_planner(
    const std::shared_ptr<const scenario::IntersectionScenario>& scn) {
  auto planner = std::make_shared<core::CompoundPlanner<IntersectionWorld>>(
      std::make_shared<sim::CruisePlanner<IntersectionWorld>>(
          11.0, scn->ego_limits()),
      std::make_shared<scenario::IntersectionSafetyModel>(scn),
      core::CompoundOptions{/*aggressive_unsafe_set=*/true});
  planner->enable_degradation(core::LadderConfig{});
  return planner;
}

IntersectionWorld intersection_world(double p, double v, Interval window) {
  IntersectionWorld w;
  w.t = 0.0;
  w.ego = {p, v};
  w.tau_a = IntervalSet{window, Interval{window.hi + 2.0, window.hi + 4.0}};
  w.tau_b = IntervalSet{Interval{window.lo + 0.5, window.hi + 0.5}};
  return w;
}

TEST(MonitorZeroAlloc, IntersectionPlanNn) {
  const auto scn = sim::IntersectionSimConfig{}.make_scenario();
  // Far from the crossing, windows far ahead: kappa_n every step.
  const IntersectionWorld w = intersection_world(-25.0, 5.0, {30.0, 35.0});
  auto planner = intersection_planner(scn);
  expect_plan_allocation_free(*planner, w, kHealthy, false);
}

TEST(MonitorZeroAlloc, IntersectionPlanEmergency) {
  const auto scn = sim::IntersectionSimConfig{}.make_scenario();
  // Fast and close with both zones blocked: kappa_e every step.
  const IntersectionWorld w = intersection_world(6.0, 14.0, {0.5, 10.0});
  auto planner = intersection_planner(scn);
  expect_plan_allocation_free(*planner, w, kHealthy, true);
}

TEST(MonitorZeroAlloc, IntersectionPlanEmergencyBiased) {
  const auto scn = sim::IntersectionSimConfig{}.make_scenario();
  const IntersectionWorld w = intersection_world(-25.0, 5.0, {30.0, 35.0});
  auto planner = intersection_planner(scn);
  expect_plan_allocation_free(*planner, w, kInconsistent, false);
  EXPECT_EQ(planner->ladder_level(), core::DegradationLevel::kEmergencyBiased);
}

TEST(MonitorZeroAlloc, IntersectionSwitchesWithFullLog) {
  // Every entry into kappa_e takes the intersection's boundary reason;
  // "before near lane" and "inside near lane" are 16 bytes, one past the
  // small-string buffer, so a reason held as a std::string allocated on
  // every entry.
  using Planner = core::CompoundPlanner<IntersectionWorld>;
  const auto scn = sim::IntersectionSimConfig{}.make_scenario();
  const IntersectionWorld nn = intersection_world(-25.0, 5.0, {30.0, 35.0});
  const IntersectionWorld emergency =
      intersection_world(6.0, 14.0, {0.5, 10.0});
  auto planner = intersection_planner(scn);
  while (planner->switch_events().size() < Planner::kMaxSwitchEvents) {
    planner->note_signals(kHealthy);
    planner->plan(emergency);
    planner->note_signals(kHealthy);
    planner->plan(nn);
  }
  const std::string_view reason = planner->switch_events().front().reason;
  EXPECT_TRUE(reason == "before near lane" || reason == "inside near lane")
      << reason;
  for (int pair = 0; pair < 3; ++pair) {
    planner->note_signals(kHealthy);
    EXPECT_EQ(allocations_of([&] { planner->plan(emergency); }), 0u)
        << "entering kappa_e, pair " << pair;
    EXPECT_TRUE(planner->last_was_emergency());
    planner->note_signals(kHealthy);
    EXPECT_EQ(allocations_of([&] { planner->plan(nn); }), 0u)
        << "leaving kappa_e, pair " << pair;
    EXPECT_FALSE(planner->last_was_emergency());
  }
  EXPECT_EQ(planner->switch_events().size(), Planner::kMaxSwitchEvents);
}

TEST(MonitorZeroAlloc, IntersectionSwitchesIntoArmedRecorder) {
  // Verdict switches, eta samples and ladder transitions land in a
  // wrapping armed recorder without touching the heap.
  using Planner = core::CompoundPlanner<IntersectionWorld>;
  const auto scn = sim::IntersectionSimConfig{}.make_scenario();
  const IntersectionWorld nn = intersection_world(-25.0, 5.0, {30.0, 35.0});
  const IntersectionWorld emergency =
      intersection_world(6.0, 14.0, {0.5, 10.0});
  auto planner = intersection_planner(scn);
  // Every sixth pair runs on an inconsistent filter, so the ladder drops
  // to EMERGENCY-BIASED and climbs back. Warm-up fills the planner's
  // switch log and the ladder's transition log.
  const auto signals = [](int pair) -> const core::DegradationSignals& {
    return pair % 6 == 0 ? kInconsistent : kHealthy;
  };
  int pair = 0;
  for (; planner->switch_events().size() < Planner::kMaxSwitchEvents ||
         planner->ladder()->transitions().size() <
             core::DegradationLadder::kMaxTransitions;
       ++pair) {
    planner->note_signals(signals(pair));
    planner->plan(emergency);
    planner->note_signals(signals(pair));
    planner->plan(nn);
  }
  obs::FlightRecorderConfig config;
  config.ring_capacity = 16;
  obs::Recorder recorder(config);
  planner->set_recorder(&recorder);
  for (const int end = pair + 12; pair < end; ++pair) {
    planner->note_signals(signals(pair));
    EXPECT_EQ(allocations_of([&] { planner->plan(emergency); }), 0u)
        << "entering kappa_e, pair " << pair;
    planner->note_signals(signals(pair));
    EXPECT_EQ(allocations_of([&] { planner->plan(nn); }), 0u)
        << "leaving kappa_e, pair " << pair;
  }
  EXPECT_GT(recorder.overwritten(), 0u) << "the ring wrapped";
  EXPECT_TRUE(recorder.saw_emergency());
  bool saw_ladder = false;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    saw_ladder |= recorder.event(i).kind ==
                  static_cast<std::uint8_t>(obs::EventKind::kLadderTransition);
  }
  EXPECT_TRUE(saw_ladder);
}

TEST(RecorderZeroAlloc, ArmedRecorderTakesEveryKind) {
  obs::FlightRecorderConfig config;
  config.ring_capacity = 8;
  obs::Recorder recorder(config);
  const auto emit_every_kind = [&](std::uint32_t step) {
    recorder.begin_step(step);
    recorder.message_accept(1, 0.5);
    recorder.message_reject(1, obs::GateRejectReason::kStale, 0.25);
    recorder.gate_verdict(true, -0.5);
    recorder.ladder_transition(0, 3, step);
    recorder.eta_sample(1.5);
    recorder.plan_clamp(9.0, 3.0);
    recorder.fault(obs::FaultKind::kCorrupted, 0.125);
    recorder.rollback(0.75, 3);
    recorder.step(-1.0, true, 2);
    recorder.episode_end(false, true, 0.5, step);
  };
  for (std::uint32_t step = 0; step < 4; ++step) {
    EXPECT_EQ(allocations_of([&] { emit_every_kind(step); }), 0u)
        << "step " << step;
  }
  EXPECT_EQ(recorder.size(), 8u);
  EXPECT_EQ(recorder.overwritten(), 4 * obs::kNumEventKinds - 8);
  recorder.clear();
  EXPECT_EQ(allocations_of([&] { emit_every_kind(4); }), 0u)
      << "clear keeps the armed storage";
}

TEST(RecorderZeroAlloc, GrowableRecorderStopsAllocatingOnceWarm) {
  // A traced run reusing one recorder across episodes (as the benchmark
  // oracle does) pays for storage growth only in its first episode.
  obs::Recorder recorder;
  recorder.set_enabled(true);
  const auto episode = [&] {
    recorder.clear();
    for (std::uint32_t step = 0; step < 600; ++step) {
      recorder.begin_step(step);
      recorder.eta_sample(1.0);
      recorder.step(0.5, false, 0);
    }
  };
  EXPECT_GT(allocations_of(episode), 0u) << "the first episode grows";
  for (int again = 0; again < 3; ++again) {
    EXPECT_EQ(allocations_of(episode), 0u) << "episode " << again + 1;
    EXPECT_EQ(recorder.size(), 1200u);
  }
}

std::shared_ptr<core::CompoundPlanner<LeftTurnMultiWorld>> multi_planner(
    const std::shared_ptr<const scenario::LeftTurnScenario>& base) {
  auto adapted = std::make_shared<scenario::FirstConflictAdapter>(
      std::make_shared<planners::ExpertPlanner>(
          base, planners::ExpertParams::conservative(), "expert"));
  auto planner = std::make_shared<core::CompoundPlanner<LeftTurnMultiWorld>>(
      std::move(adapted),
      std::make_shared<scenario::MultiVehicleSafetyModel>(
          std::make_shared<const scenario::MultiVehicleLeftTurn>(base)),
      core::CompoundOptions{/*aggressive_unsafe_set=*/true});
  planner->enable_degradation(core::LadderConfig{});
  return planner;
}

/// Three oncoming cars spaced \p spacing apart, the lead at \p lead.
LeftTurnMultiWorld multi_world(const scenario::LeftTurnScenario& base,
                               double p, double v, double lead,
                               double spacing) {
  const scenario::MultiVehicleLeftTurn math(
      std::make_shared<const scenario::LeftTurnScenario>(base));
  LeftTurnMultiWorld w;
  w.t = 0.0;
  w.ego = {p, v};
  for (int i = 0; i < 3; ++i) {
    filter::StateEstimate est;
    est.t = 0.0;
    const double u = lead - spacing * i;
    est.p = Interval{u - 1.0, u};
    est.v = Interval{9.0, 10.0};
    est.p_hat = u - 0.5;
    est.v_hat = 9.5;
    est.valid = true;
    w.oncoming_monitor.push_back(est);
    w.oncoming_nn.push_back(est);
  }
  math.conservative_windows(w.oncoming_monitor, w.tau_monitor);
  math.conservative_windows(w.oncoming_nn, w.tau_nn);
  return w;
}

TEST(MonitorZeroAlloc, MultiVehiclePlanNn) {
  const auto base = sim::LeftTurnSimConfig::paper_defaults().make_scenario();
  // Ego far back and slow, platoon far away: kappa_n every step.
  const LeftTurnMultiWorld w = multi_world(*base, -30.0, 2.0, -120.0, 25.0);
  auto planner = multi_planner(base);
  expect_plan_allocation_free(*planner, w, kHealthy, false);
}

TEST(MonitorZeroAlloc, MultiVehiclePlanEmergency) {
  const auto base = sim::LeftTurnSimConfig::paper_defaults().make_scenario();
  // Inside the conflict zone while the lead car occupies it: kappa_e
  // every step.
  const LeftTurnMultiWorld w = multi_world(*base, 8.0, 5.0, -14.0, 20.0);
  auto planner = multi_planner(base);
  expect_plan_allocation_free(*planner, w, kHealthy, true);
}

TEST(MonitorZeroAlloc, MultiVehiclePlanEmergencyBiased) {
  const auto base = sim::LeftTurnSimConfig::paper_defaults().make_scenario();
  const LeftTurnMultiWorld w = multi_world(*base, -30.0, 2.0, -120.0, 25.0);
  auto planner = multi_planner(base);
  expect_plan_allocation_free(*planner, w, kInconsistent, false);
  EXPECT_EQ(planner->ladder_level(), core::DegradationLevel::kEmergencyBiased);
}

/// Warms \p runner up, then checks that observe() — the world reset of
/// observe_begin() plus the episode refilling the world — allocates
/// nothing: the reset must keep the storage of the world's containers.
/// (A reset that replaced the world would free that storage without
/// allocating; the refill would then allocate it again.)
template <typename World>
void expect_observe_allocation_free(sim::EpisodeRunner<World>& runner) {
  for (int step = 0; step < 20; ++step) {
    ASSERT_FALSE(runner.done());
    runner.observe();
    runner.advance(runner.plan());
  }
  for (int step = 0; step < 5; ++step) {
    ASSERT_FALSE(runner.done());
    EXPECT_EQ(allocations_of([&] { runner.observe(); }), 0u)
        << "step " << step;
    runner.advance(runner.plan());
  }
}

TEST(MonitorZeroAlloc, IntersectionObserveKeepsWorldStorage) {
  sim::IntersectionSimConfig config;
  config.ladder = core::LadderConfig{};
  const sim::IntersectionAdapter adapter(config, /*use_compound=*/true);
  sim::EpisodeRunner<IntersectionWorld> runner(adapter, 7);
  expect_observe_allocation_free(runner);
}

TEST(MonitorZeroAlloc, IntersectionObserveIntoArmedRecorder) {
  // Gate screens and fault actions of every traffic actor land in the
  // lane's armed recorder without touching the heap.
  sim::IntersectionSimConfig config;
  config.ladder = core::LadderConfig{};
  config.gate = filter::GateConfig::hardened();
  config.faults = *fault::FaultPlan::preset("corruption");
  const sim::IntersectionAdapter adapter(config, /*use_compound=*/true);
  sim::EpisodeRunner<IntersectionWorld> runner(adapter, 7);
  obs::Recorder recorder{obs::FlightRecorderConfig{}};
  runner.attach_recorder(&recorder);
  expect_observe_allocation_free(runner);
  EXPECT_GT(recorder.size(), 0u);
}

/// Steps \p runner on full braking (the ego stops short of every conflict
/// zone, so the episode runs on) across the end of the traffic's
/// acceleration-profile prefix. The steps up to shortly before it warm
/// the episode (its world's window sets reach their size on the way);
/// from there no step allocates, including the steps whose profile reads
/// draw the tail into storage reserved at construction.
template <typename World>
void expect_steps_past_profile_prefix_allocation_free(
    sim::EpisodeRunner<World>& runner) {
  const double brake = runner.config().ego_limits.a_min;
  constexpr std::size_t kPrefix = vehicle::AccelProfile::kEagerSteps;
  for (std::size_t step = 0; step < kPrefix + 40; ++step) {
    ASSERT_FALSE(runner.done()) << "step " << step;
    const std::uint64_t allocs = allocations_of([&] {
      runner.observe();
      runner.advance(brake);
    });
    if (step + 16 >= kPrefix) {
      EXPECT_EQ(allocs, 0u) << "step " << step;
    }
  }
}

TEST(MonitorZeroAlloc, IntersectionStepsPastProfilePrefix) {
  sim::IntersectionSimConfig config;
  config.ladder = core::LadderConfig{};
  const sim::IntersectionAdapter adapter(config, /*use_compound=*/true);
  ASSERT_GT(config.total_steps(), vehicle::AccelProfile::kEagerSteps + 40);
  sim::EpisodeRunner<IntersectionWorld> runner(adapter, 7);
  expect_steps_past_profile_prefix_allocation_free(runner);
}

TEST(MonitorZeroAlloc, MultiVehicleObserveKeepsWorldStorage) {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.ladder = core::LadderConfig{};
  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();
  sim::MultiVehicleConfig multi;
  multi.num_oncoming = 3;
  const sim::MultiVehicleAdapter adapter(config, multi, setup);
  sim::EpisodeRunner<LeftTurnMultiWorld> runner(adapter, 7);
  expect_observe_allocation_free(runner);
}

TEST(MonitorZeroAlloc, MultiVehicleStepsPastProfilePrefix) {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.ladder = core::LadderConfig{};
  config.faults = *fault::FaultPlan::preset("corruption");
  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();
  sim::MultiVehicleConfig multi;
  multi.num_oncoming = 3;
  const sim::MultiVehicleAdapter adapter(config, multi, setup);
  ASSERT_GT(config.total_steps(), vehicle::AccelProfile::kEagerSteps + 40);
  sim::EpisodeRunner<LeftTurnMultiWorld> runner(adapter, 7);
  expect_steps_past_profile_prefix_allocation_free(runner);
}

/// A warmed 64-lane left-turn pool's production step — step_cohort, each
/// lane observing through its own stack and kappa_n planned by one
/// plan_batch call, then the retire scan — allocates nothing, with the
/// lanes' flight recorders armed or not. The ladder stays off, as in the
/// fleet_steady_step bench: DegradationLadder logs its transitions into
/// a vector that grows. No lane finishes (the target is out of reach),
/// and the measured steps read past the profiles' eager prefix.
void expect_left_turn_cohort_step_allocation_free(bool armed) {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.horizon = 60.0;
  config.geometry.ego_target = 1.0e6;
  util::Rng net_rng(42);
  sim::AgentBlueprint bp;
  bp.name = "nn";
  bp.scenario = config.make_scenario();
  bp.net = std::make_shared<const nn::Mlp>(nn::MlpSpec{{4, 16, 16, 1}},
                                           net_rng);
  bp.sensor = config.sensor;
  bp.config = sim::AgentConfig::ultimate_compound();
  const sim::LeftTurnAdapter adapter(config, bp);
  constexpr std::size_t kLanes = 64;
  std::atomic<std::size_t> next{0};
  std::vector<sim::RunResult> records(kLanes);
  obs::FlightDumpCollector dumps;
  sim::EpisodePool<scenario::LeftTurnWorld> pool(
      adapter, kLanes, 1, sim::SeedPolicy::kPaired, next, records.size(),
      nullptr, armed ? &dumps : nullptr);
  planners::NnPlanner planner(bp.net, planners::InputEncoding{}, "nn");
  const sim::FleetBatchPlanner<scenario::LeftTurnWorld> batch_plan =
      [&planner](std::span<const scenario::LeftTurnWorld> worlds,
                 std::span<double> out) { planner.plan_batch(worlds, out); };
  bool stepped = true;
  std::size_t retired = 0;
  const auto shard_step = [&] {
    stepped = pool.step_cohort(0, pool.active(), batch_plan) && stepped;
    retired += pool.retire_and_refill(records);
  };
  constexpr std::size_t kWarmup = vehicle::AccelProfile::kEagerSteps + 64;
  ASSERT_GT(config.total_steps(), kWarmup + 64);
  for (std::size_t step = 0; step < kWarmup; ++step) shard_step();
  for (std::size_t step = 0; step < 64; ++step) {
    EXPECT_EQ(allocations_of(shard_step), 0u) << "step " << step;
  }
  EXPECT_TRUE(stepped);
  EXPECT_EQ(retired, 0u);
  EXPECT_EQ(pool.active(), kLanes);
}

TEST(FleetZeroAlloc, LeftTurnCohortStep) {
  expect_left_turn_cohort_step_allocation_free(/*armed=*/false);
}

TEST(FleetZeroAlloc, LeftTurnCohortStepArmed) {
  expect_left_turn_cohort_step_allocation_free(/*armed=*/true);
}

}  // namespace
}  // namespace cvsafe
