#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "cvsafe/comm/channel.hpp"
#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/core/degradation.hpp"
#include "cvsafe/core/evaluation.hpp"
#include "cvsafe/core/planner.hpp"
#include "cvsafe/fault/faulty_channel.hpp"
#include "cvsafe/fault/faulty_sensor.hpp"
#include "cvsafe/filter/estimate.hpp"
#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/sensing/sensor.hpp"
#include "cvsafe/sim/fleet_context.hpp"
#include "cvsafe/sim/run_config.hpp"
#include "cvsafe/sim/run_result.hpp"
#include "cvsafe/sim/seeding.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/rng.hpp"
#include "cvsafe/util/thread_pool.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file engine.hpp
/// The generic closed-loop engine: ONE implementation of the per-step
/// sense -> deliver -> estimate -> monitor -> plan -> act loop that every
/// scenario shares, parameterized by a ScenarioAdapter. The engine owns
/// the step sequencing — traffic broadcast, channel delivery, estimator
/// update, planner dispatch (monitor query included via the compound
/// planner seam), dynamics stepping, eta/trace recording — while the
/// adapter owns what is genuinely scenario-specific: workload generation,
/// world-view construction and unsafe/target classification.
///
/// Determinism contract: one util::Rng drives an entire episode. The
/// draw order is fixed — workload draws in ScenarioAdapter::make_episode
/// first, then per step and per traffic actor (in creation order) the
/// channel offer followed by the sensor sample. Batch runners seed each
/// episode independently (seeding.hpp), so results are bit-reproducible
/// regardless of thread scheduling.

namespace cvsafe::sim {

/// One simulated traffic participant: physical state, its scripted
/// acceleration profile, the V2V channel and sensor through which the ego
/// observes it, and the estimator(s) consuming those observations.
struct TrafficActor {
  std::uint32_t id = 1;  ///< V2V message source id
  vehicle::VehicleState state{};
  vehicle::AccelProfile profile;
  /// Channel/sensor are the fault-injecting decorators; with an empty
  /// FaultPlan (the default) both are pure pass-throughs, bit-identical
  /// to the undecorated comm::Channel / sensing::Sensor.
  fault::FaultyChannel channel;
  fault::FaultySensor sensor;
  /// Estimators fed by pump(), updated in vector order per delivery.
  std::vector<std::unique_ptr<filter::Estimator>> estimators;

  /// Delivery scratch reused by broadcast_and_observe: after the first
  /// few deliveries warm its capacity, draining the channel allocates
  /// nothing (part of the zero-alloc steady-state episode step).
  std::vector<comm::Message> inbox;
};

/// Builds the (possibly fault-decorated) channel of actor \p actor_id for
/// the episode seeded with \p episode_seed. Fault randomness comes from a
/// stream derived from the plan seed and the episode seed — disjoint from
/// the episode RNG — so enabling faults never shifts workload, drop or
/// sensor-noise draws, and a fault campaign runs on paired workloads.
inline fault::FaultyChannel actor_channel(const RunConfig& config,
                                          std::uint32_t actor_id,
                                          std::uint64_t episode_seed) {
  return fault::FaultyChannel(
      config.comm, config.faults.channel,
      util::derive_seed(util::derive_seed(config.faults.seed, episode_seed),
                        2ULL * actor_id));
}

/// Companion of actor_channel for the actor's sensor (odd stream index).
inline fault::FaultySensor actor_sensor(const RunConfig& config,
                                        std::uint32_t actor_id,
                                        std::uint64_t episode_seed) {
  return fault::FaultySensor(
      config.sensor, config.faults.sensor,
      util::derive_seed(util::derive_seed(config.faults.seed, episode_seed),
                        2ULL * actor_id + 1ULL));
}

/// Information-quality signals of one estimator at time \p t (input to
/// the degradation ladder; see core/degradation.hpp).
inline core::DegradationSignals degradation_signals(
    const filter::InformationFilter& filt, double t) {
  core::DegradationSignals s;
  s.have_message = filt.last_message_time() >= 0.0;
  if (s.have_message) s.message_age = t - filt.last_message_time();
  s.filter_consistent = filt.consistent_at(t);
  return s;
}

/// Worst-case signal aggregation across the episode's observed vehicles:
/// start from a perfect signal set and fold each vehicle in.
struct SignalAccumulator {
  core::DegradationSignals worst{0.0, true, true};

  void add(const core::DegradationSignals& s) {
    if (s.message_age > worst.message_age) {
      worst.message_age = s.message_age;
    }
    worst.have_message = worst.have_message && s.have_message;
    worst.filter_consistent =
        worst.filter_consistent && s.filter_consistent;
  }
};

/// The per-actor half of an engine step: the actor broadcasts its current
/// snapshot on its channel, due messages are delivered and a sensor
/// sample is (possibly) taken, each forwarded to the estimator sinks.
/// RNG draw order: channel offer, then sensor sample. Returns the
/// pre-step snapshot (used by traces and for the dynamics step).
template <typename OnMessage, typename OnSensor>
vehicle::VehicleSnapshot broadcast_and_observe(TrafficActor& actor, double t,
                                               std::size_t step,
                                               util::Rng& rng,
                                               OnMessage&& on_message,
                                               OnSensor&& on_sensor) {
  const double accel = actor.profile.at(step);
  const vehicle::VehicleSnapshot snapshot{t, actor.state, accel};
  actor.channel.offer(comm::Message{actor.id, snapshot}, rng);
  actor.channel.collect_into(t, actor.inbox);
  for (const auto& msg : actor.inbox) on_message(msg);
  if (const auto reading = actor.sensor.sense(snapshot, rng)) {
    on_sensor(*reading);
  }
  return snapshot;
}

/// broadcast_and_observe into the actor's own estimators.
inline vehicle::VehicleSnapshot pump(TrafficActor& actor, double t,
                                     std::size_t step, util::Rng& rng) {
  return broadcast_and_observe(
      actor, t, step, rng,
      [&](const comm::Message& msg) {
        for (const auto& est : actor.estimators) est->on_message(msg);
      },
      [&](const sensing::SensorReading& reading) {
        for (const auto& est : actor.estimators) est->on_sensor(reading);
      });
}

/// Per-episode scenario state: traffic, estimators and the assembled
/// control stack. Instances are created fresh by ScenarioAdapter for
/// every episode (estimator and monitor state is per episode).
template <typename World>
class Episode {
 public:
  virtual ~Episode() = default;

  /// Pumps every traffic actor's channel/sensor at (t, step) and fills
  /// the scenario fields of \p world (estimates, occupancy windows). The
  /// engine has already set world.t and world.ego.
  virtual void observe(World& world, double t, std::size_t step,
                       util::Rng& rng) = 0;

  // --- Fleet batched-sweep seam ---------------------------------------
  // The fleet engine decomposes observe() into fleet-wide sweeps so the
  // heavy arithmetic (Kalman update/predict, reachability propagation)
  // runs batched over every resident lane. The decomposition preserves
  // each lane's op and RNG order exactly — pump (channel offer + drain),
  // deliver (screened message absorption), sense (sensor sample), stage
  // (sweep staging), build (world assembly) happen in the same per-lane
  // sequence observe() runs them in; only *cross-lane* interleaving
  // changes, and lanes share no state beyond the pool-resident SoA slots
  // each owns exclusively. Scenarios opt in by overriding bind_fleet to
  // return true (and their adapter's fleet_sweeps()); with the defaults
  // each fleet lane runs its own observe() inside the cohort step.

  /// Binds the episode's pool-resident state (Kalman lanes, ladder slot)
  /// into \p ctx; returns true when the episode supports the sweep
  /// decomposition. Called once at fleet admission, before any step.
  virtual bool bind_fleet(FleetStackContext& ctx) {
    (void)ctx;
    return false;
  }

  /// Sweep 1 of observe(): broadcasts the traffic snapshot(s) on the
  /// channel (episode-RNG draws) and drains due messages into the slab's
  /// open lane.
  virtual void sweep_pump(double t, std::size_t step, util::Rng& rng,
                          comm::MessageSlab& slab) {
    (void)t, (void)step, (void)rng, (void)slab;
    CVSAFE_EXPECTS(false, "episode does not implement fleet sweeps");
  }

  /// Sweep 2: absorbs slab entries [first, last) — this episode's
  /// delivered messages, in delivery order — into the estimator stack.
  virtual void sweep_deliver(const comm::MessageSlab& slab,
                             std::size_t first, std::size_t last) {
    (void)slab, (void)first, (void)last;
    CVSAFE_EXPECTS(false, "episode does not implement fleet sweeps");
  }

  /// Sweep 3: samples the sensor(s) (episode-RNG draws) and feeds the
  /// readings to the estimator stack (pooled Kalman lanes stage them for
  /// FleetEstimator::update_batch).
  virtual void sweep_sense(double t, std::size_t step, util::Rng& rng) {
    (void)t, (void)step, (void)rng;
    CVSAFE_EXPECTS(false, "episode does not implement fleet sweeps");
  }

  /// Sweep 4 staging: queues the reachability propagation(s) to query
  /// time \p t into \p reach and the Kalman extrapolations into the
  /// bound fleet estimator. Runs after update_batch absorbed this step's
  /// readings.
  virtual void sweep_stage(double t, filter::ReachSweep& reach) {
    (void)t, (void)reach;
    CVSAFE_EXPECTS(false, "episode does not implement fleet sweeps");
  }

  /// Sweep 5: fills the scenario fields of \p world (t/ego already set),
  /// reading the caches the batched sweeps produced.
  virtual void sweep_build(World& world) {
    (void)world;
    CVSAFE_EXPECTS(false, "episode does not implement fleet sweeps");
  }

  /// Steps all traffic with the scenario dynamics.
  virtual void advance_traffic(std::size_t step, double dt) = 0;

  /// Classifies the post-step configuration (unsafe / target set).
  virtual StepStatus check(const vehicle::VehicleState& ego) const = 0;

  /// Attaches scenario extras to the finished result (default: none).
  virtual void finalize(RunResult& result) const { (void)result; }

  /// Wires an obs::Recorder through the episode's control stack so its
  /// instrumentation points (monitor, ladder, gate, Kalman, fault
  /// decorators) emit trace events. Default: no instrumentation (the
  /// engine-mounted hook still records per-step events). Called by
  /// sim::RecordingHook before the first step.
  virtual void attach_recorder(obs::Recorder* recorder) { (void)recorder; }

  /// Wires a flight-recorder ring through the control stack (gate,
  /// compound planner) so its compact instrumentation points land in the
  /// pool lane's ring. Default: no instrumentation. Called by the fleet
  /// pool at admission, after the ring is reset.
  virtual void attach_ring(obs::RingRecorder* ring) { (void)ring; }

  core::PlannerBase<World>& planner() { return *planner_; }
  const std::shared_ptr<core::PlannerBase<World>>& planner_ptr() const {
    return planner_;
  }
  /// The compound planner wrapping kappa_n, or nullptr when the stack is
  /// unmonitored (pure-NN / raw baselines).
  core::CompoundPlanner<World>* compound() const { return compound_; }
  const vehicle::VehicleState& ego_init() const { return ego_init_; }

 protected:
  std::shared_ptr<core::PlannerBase<World>> planner_;
  core::CompoundPlanner<World>* compound_ = nullptr;  ///< non-owning view
  vehicle::VehicleState ego_init_{};
};

/// Scenario plug-in: everything the engine cannot know. Stateless across
/// episodes — all per-episode state lives in the Episode it creates.
template <typename World>
class ScenarioAdapter {
 public:
  using WorldType = World;

  virtual ~ScenarioAdapter() = default;

  virtual std::string_view name() const = 0;

  /// The scenario-independent loop parameters.
  virtual const RunConfig& run() const = 0;

  /// Draws the episode workload from \p rng and assembles traffic +
  /// control stack. Every random workload choice happens here, before
  /// the first step, in an order documented by the adapter. \p seed is
  /// the episode seed driving \p rng, passed through so the adapter can
  /// derive the *fault* streams (actor_channel / actor_sensor) without
  /// touching the episode RNG.
  virtual std::unique_ptr<Episode<World>> make_episode(
      util::Rng& rng, std::size_t total_steps,
      std::uint64_t seed) const = 0;

  /// True when every episode this adapter creates implements the fleet
  /// sweep decomposition (Episode::bind_fleet and the sweep_* overrides).
  /// The fleet engine only runs the batched sweeps for adapters that
  /// promise this; with the default each lane runs its own observe()
  /// inside the same cohort step.
  virtual bool fleet_sweeps() const { return false; }
};

/// Optional per-step observer (figure traces, debugging). on_step fires
/// after planning and before the dynamics step — ego and the traffic are
/// still in their pre-step states.
template <typename World>
class StepHook {
 public:
  virtual ~StepHook() = default;

  /// Fires once from the EpisodeRunner constructor, before the first
  /// step. The episode is mutable here so instrumenting hooks can wire
  /// sinks through the freshly built control stack.
  virtual void on_episode_start(Episode<World>& episode,
                                std::uint64_t seed) {
    (void)episode;
    (void)seed;
  }

  /// Fires at the top of the observe phase, before traffic is pumped —
  /// the earliest point at which (step, t) of the new step are known.
  virtual void on_step_begin(std::size_t step, double t) {
    (void)step;
    (void)t;
  }

  virtual void on_step(std::size_t step, double t, const World& world,
                       const vehicle::VehicleState& ego, double a0,
                       bool emergency, const Episode<World>& episode) = 0;
  virtual void on_finish(const Episode<World>& episode) { (void)episode; }
};

/// Drives one episode through the engine loop with explicit phases, so
/// callers can either step it to completion (run_episode) or interleave
/// many runners and batch the NN evaluations across them (fleet.hpp).
template <typename World>
class EpisodeRunner {
 public:
  EpisodeRunner(const ScenarioAdapter<World>& adapter, std::uint64_t seed,
                StepHook<World>* hook = nullptr)
      : config_(&adapter.run()),
        rng_(seed),
        hook_(hook),
        total_steps_(config_->total_steps()),
        episode_(adapter.make_episode(rng_, total_steps_, seed)),
        ego_dyn_(config_->ego_limits),
        ego_(episode_->ego_init()) {
    if (hook_ != nullptr) hook_->on_episode_start(*episode_, seed);
  }

  bool done() const { return finished_ || step_ >= total_steps_; }

  /// Phase 1: traffic broadcast, channel delivery, estimator update;
  /// builds the planner's world view for the current step.
  const World& observe() {
    observe_begin();
    episode_->observe(world_, t_, step_, rng_);
    return world_;
  }

  /// Phase 1 bookkeeping only (fleet sweep path): step timing, the
  /// step-begin hook and the world skeleton (t/ego), without the
  /// episode's observe work — the pool drives that through the sweeps.
  /// observe() == observe_begin() + Episode::observe.
  void observe_begin() {
    CVSAFE_EXPECTS(!done(), "observe() after the episode finished");
    t_ = static_cast<double>(step_) * config_->dt_c;
    if (hook_ != nullptr) hook_->on_step_begin(step_, t_);
    if (ring_ != nullptr) ring_->begin_step(static_cast<std::uint32_t>(step_));
    world_ = World{};
    world_.t = t_;
    world_.ego = ego_;
  }

  /// Fleet bind at admission (pool-resident estimator/ladder slots).
  bool bind_fleet(FleetStackContext& ctx) {
    return episode_->bind_fleet(ctx);
  }

  /// Attaches the pool lane's flight-recorder ring: the runner stamps
  /// each step into it (observe_begin) and detects plan clamps
  /// (advance_begin); the episode wires it through gate and planner.
  /// Pass nullptr to detach.
  void attach_ring(obs::RingRecorder* ring) {
    ring_ = ring;
    episode_->attach_ring(ring);
  }

  // Fleet sweep wrappers: forward the current (t, step) and the episode
  // RNG so the per-lane draw order matches observe() exactly. Valid only
  // between observe_begin() and advance_begin().
  void sweep_pump(comm::MessageSlab& slab) {
    episode_->sweep_pump(t_, step_, rng_, slab);
  }
  void sweep_deliver(const comm::MessageSlab& slab, std::size_t first,
                     std::size_t last) {
    episode_->sweep_deliver(slab, first, last);
  }
  void sweep_sense() { episode_->sweep_sense(t_, step_, rng_); }
  void sweep_stage(filter::ReachSweep& reach) {
    episode_->sweep_stage(t_, reach);
  }
  const World& sweep_build() {
    episode_->sweep_build(world_);
    return world_;
  }

  /// Phase 2a (single-episode path): full planner dispatch.
  double plan() { return episode_->planner().plan(world_); }

  /// Phase 2b (fleet path): the runtime monitor's decision only —
  /// the emergency acceleration when kappa_e takes this step, nullopt
  /// when the embedded planner must be evaluated on nn_world(). For an
  /// unmonitored stack this always returns nullopt.
  std::optional<double> monitor_gate() {
    auto* compound = episode_->compound();
    if (compound == nullptr) return std::nullopt;
    return compound->monitor_gate(world_);
  }

  /// The world view the embedded planner sees this step (aggressive
  /// shrink applied when the compound planner is configured for it).
  World nn_world() const {
    auto* compound = episode_->compound();
    return compound != nullptr ? compound->planner_view(world_) : world_;
  }

  /// Phase 3: bookkeeping, dynamics and outcome for the chosen command.
  void advance(double a0) {
    advance_begin(a0);
    advance_commit(ego_dyn_.step(ego_, a0, config_->dt_c));
  }

  /// Phase 3a (pooled path): the pre-dynamics half of advance() — step
  /// accounting and the hook firing on the pre-step states. The caller
  /// then steps the ego externally (vehicle::DoubleIntegrator::step_batch
  /// over the pool's SoA lanes, bit-identical per lane to step()) and
  /// completes the step with advance_commit().
  void advance_begin(double a0) {
    ++result_.steps;
    if (obs::ring_recording(ring_)) {
      const vehicle::VehicleLimits& limits = config_->ego_limits;
      if (a0 < limits.a_min) {
        ring_->plan_clamp(a0, limits.a_min);
      } else if (a0 > limits.a_max) {
        ring_->plan_clamp(a0, limits.a_max);
      }
    }
    auto* compound = episode_->compound();
    const bool emergency =
        compound != nullptr && compound->last_was_emergency();
    if (emergency) ++result_.emergency_steps;
    if (hook_ != nullptr) {
      hook_->on_step(step_, t_, world_, ego_, a0, emergency, *episode_);
    }
  }

  /// Phase 3b (pooled path): adopts the externally stepped ego state,
  /// advances traffic and classifies the post-step configuration.
  void advance_commit(const vehicle::VehicleState& stepped_ego) {
    ego_ = stepped_ego;
    episode_->advance_traffic(step_, config_->dt_c);
    const StepStatus status = episode_->check(ego_);
    if (status.collided) {
      result_.collided = true;
      finished_ = true;
    } else if (status.reached) {
      result_.reached = true;
      result_.reach_time = t_ + config_->dt_c;
      finished_ = true;
    }
    ++step_;
  }

  /// Current ego state (pool mirrors it into the SoA lanes).
  const vehicle::VehicleState& ego() const { return ego_; }

  /// The engine-facing loop parameters of this episode's scenario.
  const RunConfig& config() const { return *config_; }

  /// Seals the episode: eta evaluation, scenario extras, finish hook.
  RunResult finish() {
    if (hook_ != nullptr) hook_->on_finish(*episode_);
    core::EpisodeOutcome outcome;
    outcome.entered_unsafe_set = result_.collided;
    outcome.reached_target = result_.reached;
    outcome.reach_time = result_.reach_time;
    result_.eta = core::eta(outcome);
    if (auto* compound = episode_->compound();
        compound != nullptr && compound->has_ladder()) {
      const core::DegradationStats ladder_stats = compound->ladder_stats();
      result_.ladder_steps = ladder_stats.steps_at;
      result_.ladder_transitions = ladder_stats.transitions;
    }
    episode_->finalize(result_);
    return std::move(result_);
  }

  const Episode<World>& episode() const { return *episode_; }

 private:
  const RunConfig* config_;
  util::Rng rng_;
  StepHook<World>* hook_;
  obs::RingRecorder* ring_ = nullptr;  ///< pool lane ring (non-owning)
  std::size_t total_steps_;
  std::unique_ptr<Episode<World>> episode_;
  vehicle::DoubleIntegrator ego_dyn_;
  vehicle::VehicleState ego_;
  World world_{};
  double t_ = 0.0;
  std::size_t step_ = 0;
  bool finished_ = false;
  RunResult result_;
};

/// Runs one episode to completion. \p seed drives every random choice
/// (workload, channel drops, sensor noise); \p hook, when non-null,
/// receives the per-step recording.
template <typename World>
RunResult run_episode(const ScenarioAdapter<World>& adapter,
                      std::uint64_t seed, StepHook<World>* hook = nullptr) {
  EpisodeRunner<World> runner(adapter, seed, hook);
  while (!runner.done()) {
    runner.observe();
    runner.advance(runner.plan());
  }
  return runner.finish();
}

/// Runs \p n independent episodes in parallel (util::parallel_for; 0 =
/// hardware thread count) and returns the seed-ordered results.
template <typename World>
std::vector<RunResult> run_episodes(const ScenarioAdapter<World>& adapter,
                                    std::size_t n, std::uint64_t base_seed,
                                    std::size_t threads = 0,
                                    SeedPolicy policy = SeedPolicy::kPaired) {
  CVSAFE_EXPECTS(n > 0, "batch must contain at least one episode");
  std::vector<RunResult> results(n);
  util::parallel_for(
      n,
      [&](std::size_t i) {
        results[i] = run_episode(adapter, episode_seed(base_seed, i, policy));
      },
      threads);
  return results;
}

}  // namespace cvsafe::sim
