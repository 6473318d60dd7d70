#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
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
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/sensing/sensor.hpp"
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
/// planner seam), dynamics stepping, gate tallies, recorder wiring,
/// eta/trace recording — while the adapter owns what is genuinely
/// scenario-specific: workload generation, world-view construction and
/// unsafe/target classification.
///
/// Determinism contract: one util::Rng drives an entire episode. The
/// draw order is fixed — workload draws in ScenarioAdapter::make_episode
/// first, then per step and per traffic actor (in creation order) the
/// channel offer followed by the sensor sample. make_episode advances
/// the episode RNG past every workload draw; the tail of an acceleration
/// profile, drawn on first read, comes from a private copy of that
/// profile's segment of the stream. Batch runners seed each
/// episode independently (seeding.hpp), so results are bit-reproducible
/// regardless of thread scheduling.

namespace cvsafe::sim {

/// One simulated traffic participant: physical state, its scripted
/// acceleration profile, the V2V channel and sensor through which the ego
/// observes it, and the estimator(s) consuming those observations.
struct TrafficActor {
  std::uint32_t id = 1;  ///< V2V message source id
  vehicle::VehicleState state{};
  /// Read every step. Its in-object part is the drawn steps and a
  /// pointer: the generator of the steps past its eager prefix is cold
  /// and lives out of line.
  vehicle::AccelProfile profile;
  /// Channel/sensor are the fault-injecting decorators; with an empty
  /// FaultPlan (the default) both are pure pass-throughs, bit-identical
  /// to the undecorated comm::Channel / sensing::Sensor.
  fault::FaultyChannel channel;
  fault::FaultySensor sensor;
  /// Estimators fed by pump(), updated in vector order per delivery.
  std::vector<std::unique_ptr<filter::Estimator>> estimators;

  /// Delivery scratch reused by pump: after the first
  /// few deliveries warm its capacity, draining the channel allocates
  /// nothing (part of the zero-alloc steady-state episode step).
  std::vector<comm::Message> inbox;

  /// Wires \p recorder into the channel and sensor fault stages (the
  /// estimators are wired through the episode's typed filter views).
  void set_recorder(obs::Recorder* recorder) {
    channel.set_recorder(recorder);
    sensor.set_recorder(recorder);
  }
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

/// True when the traffic start-speed range [\p lo, \p hi] is ordered and
/// lies within \p limits' speeds, as AccelProfile::random needs of every
/// start speed drawn from it. Each adapter contract-checks its range at
/// construction, naming the config fields.
inline bool start_speeds_within(double lo, double hi,
                                const vehicle::VehicleLimits& limits) {
  return limits.v_min <= lo && lo <= hi && hi <= limits.v_max;
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

/// Adds one information filter's plausibility-gate tally to \p result:
/// accepted and rejected messages, and the rejections per gate reason
/// (obs::GateRejectReason order). Episode::finalize calls it once per
/// information filter of the episode.
inline void add_gate_tally(RunResult& result,
                           const filter::InformationFilter& filt) {
  const filter::RejectionCounters& c = filt.rejections();
  result.messages_accepted += c.accepted;
  result.messages_rejected += c.total_rejected();
  result.rejection_reasons[0] += c.non_finite;
  result.rejection_reasons[1] += c.out_of_range;
  result.rejection_reasons[2] += c.stale;
  result.rejection_reasons[3] += c.implausible;
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
/// snapshot {t, state, profile.at(step)} on its channel, due messages are
/// delivered and a sensor sample is (possibly) taken, each forwarded to
/// the actor's estimators in vector order. RNG draw order: channel offer,
/// then sensor sample.
inline void pump(TrafficActor& actor, double t, std::size_t step,
                 util::Rng& rng) {
  const vehicle::VehicleSnapshot snapshot{t, actor.state,
                                          actor.profile.at(step)};
  actor.channel.offer(comm::Message{actor.id, snapshot}, rng);
  actor.channel.collect_into(t, actor.inbox);
  for (const auto& msg : actor.inbox) {
    for (const auto& est : actor.estimators) est->on_message(msg);
  }
  if (const auto reading = actor.sensor.sense(snapshot, rng)) {
    for (const auto& est : actor.estimators) est->on_sensor(*reading);
  }
}

/// Per-episode scenario state: the traffic with its estimators and the
/// assembled control stack. Instances are created fresh by
/// ScenarioAdapter for every episode (estimator and monitor state is per
/// episode). The engine pumps, advances, tallies and wires the traffic;
/// a scenario supplies its workload draw (its constructor), its world
/// view (build_world) and its unsafe/target classification (check).
template <typename World>
class Episode {
 public:
  virtual ~Episode() = default;

  /// Fills the scenario fields of \p world (estimates, occupancy windows)
  /// from the traffic's estimators, which the engine has just pumped, and
  /// refreshes the degradation ladder's signals. The engine has already
  /// set world.t (== \p t) and world.ego.
  virtual void build_world(World& world, double t) = 0;

  /// Classifies the post-step configuration (unsafe / target set).
  virtual StepStatus check(const vehicle::VehicleState& ego) const = 0;

  /// Steps every traffic actor with the traffic dynamics, in creation
  /// order.
  void advance_traffic(std::size_t step, double dt) {
    for (TrafficActor& actor : traffic_) {
      actor.state = traffic_dyn_.step(actor.state, actor.profile.at(step),
                                      dt);
    }
  }

  /// Adds every information filter's gate tally to the finished result.
  void finalize(RunResult& result) const {
    for (const filter::InformationFilter* f : filters_) {
      add_gate_tally(result, *f);
    }
  }

  /// Wires an obs::Recorder through the episode's control stack — the
  /// compound planner (monitor verdicts, eta samples, ladder
  /// transitions), every information filter (gate screens, Kalman
  /// rollbacks) and every traffic actor's fault stages — so its
  /// instrumentation points emit events. Called by
  /// EpisodeRunner::attach_recorder before the first step. Pass nullptr
  /// to detach.
  void attach_recorder(obs::Recorder* recorder) {
    if (compound_ != nullptr) compound_->set_recorder(recorder);
    for (filter::InformationFilter* f : filters_) f->set_recorder(recorder);
    for (TrafficActor& actor : traffic_) actor.set_recorder(recorder);
  }

  /// The traffic in creation order: the order in which the engine pumps
  /// and advances it.
  std::vector<TrafficActor>& traffic() { return traffic_; }
  const std::vector<TrafficActor>& traffic() const { return traffic_; }

  core::PlannerBase<World>& planner() { return *planner_; }
  /// The compound planner wrapping kappa_n, or nullptr when the stack is
  /// unmonitored (pure-NN / raw baselines).
  core::CompoundPlanner<World>* compound() const { return compound_; }
  const vehicle::VehicleState& ego_init() const { return ego_init_; }

 protected:
  /// \p traffic_limits bound the dynamics every traffic actor is stepped
  /// with.
  explicit Episode(const vehicle::VehicleLimits& traffic_limits)
      : traffic_dyn_(traffic_limits) {}

  /// A traffic estimator: an information filter, whose typed view the
  /// episode keeps for the gate tallies and the recorder wiring.
  std::unique_ptr<filter::Estimator> make_filter(
      const vehicle::VehicleLimits& limits,
      const sensing::SensorConfig& sensor,
      const filter::InfoFilterOptions& options,
      const filter::GateConfig& gate) {
    auto f = std::make_unique<filter::InformationFilter>(limits, sensor,
                                                         options, gate);
    filters_.push_back(f.get());
    return f;
  }

  /// Installs kappa_n (\p inner) as the episode's planner: wrapped in the
  /// compound planner with \p model (monitor + kappa_e), and the
  /// degradation ladder armed when \p ladder is set, or bare when
  /// \p model is null.
  void install_planner(
      std::shared_ptr<core::PlannerBase<World>> inner,
      std::shared_ptr<const core::SafetyModelBase<World>> model,
      const std::optional<core::LadderConfig>& ladder,
      core::CompoundOptions options = {}) {
    if (model == nullptr) {
      planner_ = std::move(inner);
      return;
    }
    auto compound = std::make_shared<core::CompoundPlanner<World>>(
        std::move(inner), std::move(model), options);
    compound_ = compound.get();
    planner_ = std::move(compound);
    if (ladder) compound_->enable_degradation(*ladder);
  }

  std::vector<TrafficActor> traffic_;
  /// Typed views of the traffic's information filters, in creation order.
  std::vector<filter::InformationFilter*> filters_;
  vehicle::VehicleState ego_init_{};

 private:
  vehicle::DoubleIntegrator traffic_dyn_;
  std::shared_ptr<core::PlannerBase<World>> planner_;
  core::CompoundPlanner<World>* compound_ = nullptr;  ///< non-owning view
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

  /// Compile-only seam for bench/e2e/replica.hpp, which still asks for
  /// the deleted SoA sweeps: no adapter overrides it, so the replica takes
  /// its per-lane branch. Delete with ROADMAP item 5's benchmark change.
  virtual bool fleet_sweeps() const { return false; }
};

/// Optional per-step observer (figure traces, debugging). on_step fires
/// after planning and before the dynamics step — ego and the traffic are
/// still in their pre-step states.
template <typename World>
class StepHook {
 public:
  virtual ~StepHook() = default;

  /// The recorder this hook mounts (nullptr: none). The EpisodeRunner
  /// constructor attaches it before the first step.
  virtual obs::Recorder* recorder() const { return nullptr; }

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
    if (hook_ != nullptr && hook_->recorder() != nullptr) {
      attach_recorder(hook_->recorder());
    }
  }

  bool done() const { return finished_ || step_ >= total_steps_; }

  /// Phase 1: every traffic actor, in creation order, broadcasts, gets
  /// its channel delivered and its sensor sampled into its estimators
  /// (pump); then the episode builds the planner's world view for the
  /// current step.
  const World& observe() {
    observe_begin();
    for (TrafficActor& actor : episode_->traffic()) {
      pump(actor, t_, step_, rng_);
    }
    episode_->build_world(world_, t_);
    return world_;
  }

  /// Phase 1 bookkeeping only: step timing, the step-begin stamp and the
  /// world skeleton (t/ego), without pumping the traffic or building the
  /// world.
  void observe_begin() {
    CVSAFE_EXPECTS(!done(), "observe() after the episode finished");
    t_ = static_cast<double>(step_) * config_->dt_c;
    if (recorder_ != nullptr) recorder_->begin_step(step_);
    // World storage contract: Episode::build_world fills every field, and a
    // world with containers clears them in place, so their storage
    // survives from step to step.
    if constexpr (requires(World& w) { w.clear(); }) {
      world_.clear();
    } else {
      world_ = World{};
    }
    world_.t = t_;
    world_.ego = ego_;
  }

  /// Attaches the episode's event sink (a traced run's recorder or a
  /// pool lane's armed one): the runner stamps each step into it
  /// (observe_begin) and records plan clamps (advance_begin);
  /// Episode::attach_recorder wires it through the control stack and the
  /// traffic. Pass nullptr to detach.
  void attach_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    episode_->attach_recorder(recorder);
  }

  // Compile-only seam for bench/e2e/replica.hpp: the names of the
  // deleted SoA sweep phases. No adapter promises fleet_sweeps(), so none
  // is reached; each fails its contract if one is. Delete with ROADMAP
  // item 5's benchmark change.
  void sweep_pump(const auto&) { CVSAFE_EXPECTS(false, "no fleet sweeps"); }
  void sweep_deliver(const auto&, std::size_t, std::size_t) {
    CVSAFE_EXPECTS(false, "no fleet sweeps");
  }
  void sweep_sense() { CVSAFE_EXPECTS(false, "no fleet sweeps"); }
  void sweep_stage(const auto&) { CVSAFE_EXPECTS(false, "no fleet sweeps"); }
  void sweep_build() { CVSAFE_EXPECTS(false, "no fleet sweeps"); }

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
    if (obs::recording(recorder_)) {
      const vehicle::VehicleLimits& limits = config_->ego_limits;
      if (a0 < limits.a_min) {
        recorder_->plan_clamp(a0, limits.a_min);
      } else if (a0 > limits.a_max) {
        recorder_->plan_clamp(a0, limits.a_max);
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

  /// Seals the episode: eta evaluation, ladder occupancy, the scenario's
  /// gate tallies, finish hook.
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
    return result_;
  }

  const Episode<World>& episode() const { return *episode_; }

 private:
  const RunConfig* config_;
  util::Rng rng_;
  StepHook<World>* hook_;
  obs::Recorder* recorder_ = nullptr;  ///< event sink (non-owning)
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
