#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/sim/engine.hpp"
#include "cvsafe/sim/run_result.hpp"
#include "cvsafe/sim/seeding.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

/// \file fleet.hpp
/// The fleet-scale campaign engine: a structure-of-arrays episode pool
/// driving thousands of resident episodes step-synchronously per worker,
/// with work-stealing admission and a mega-batched NN planning seam.
///
/// Where run_episodes dispatches one episode per task, the fleet engine
/// keeps a bounded pool of *resident* episodes per worker and refills
/// finished lanes from a shared atomic episode counter. It is the one
/// production batch engine: every batch entry point (eval::run_batch,
/// eval::run_setting, the per-scenario run_*_batch, the fault campaign and
/// the adversarial search) runs on it. Three consequences:
///
///  * planning batches stay wide for the whole campaign (a retiring
///    episode is replaced instead of the batch draining);
///  * imbalanced episode lengths steal work instead of idling a worker
///    (the atomic counter is the work-stealing deque, one episode at a
///    time);
///  * per-episode outputs are folded into compact FleetRecords — no
///    RunResult extras, no trajectory retention — so memory stays
///    O(pool + episodes * sizeof(FleetRecord)).
///
/// Determinism contract: the episode index -> seed map (seeding.hpp) is
/// untouched — lanes are *slots*, the RNG stream belongs to the episode
/// index claimed into the slot, so admission order cannot reorder any
/// draw. Each episode's closed loop is bit-identical to run_episode, the
/// scalar oracle (plan_batch is row-independent and bit-identical to
/// plan(); step_batch is lane-wise bit-identical to step()). Records land
/// at records[episode index], and every fold (BatchStats, metrics) runs
/// serially in index order after the pool drains — so CSVs, eta sequences
/// and metrics are byte-identical for 1, 4 or 7 threads, any pool size,
/// and to run_episodes over the same seeds.

namespace cvsafe::sim {

/// Compact per-episode outcome retained by the fleet engine: every field
/// the batch aggregates and metrics folds consume, none of the typed
/// extras. Trivially copyable; the records array is the engine's only
/// O(episodes) state.
struct FleetRecord {
  double eta = 0.0;
  double reach_time = 0.0;
  std::size_t steps = 0;
  std::size_t emergency_steps = 0;
  std::array<std::size_t, core::kNumDegradationLevels> ladder_steps{};
  std::size_t ladder_transitions = 0;
  std::size_t messages_accepted = 0;
  std::size_t messages_rejected = 0;
  /// Per-reason rejection split (obs::GateRejectReason order).
  std::array<std::size_t, 4> rejection_reasons{};
  bool collided = false;
  bool reached = false;
};

/// Fleet execution parameters.
struct FleetConfig {
  /// Maximum resident episodes across all workers. Bounds peak memory
  /// (every resident episode owns its estimator/planner stack); the
  /// per-worker lane count is pool_capacity / workers, floored at 1.
  std::size_t pool_capacity = 8192;
  std::size_t threads = 0;  ///< worker count, 0 = hardware concurrency
  SeedPolicy policy = SeedPolicy::kPaired;

  /// Run the observe phase of the cohort step as batched sweeps (pump ->
  /// deliver -> estimate -> reach) over pool-resident SoA stacks —
  /// engaged only for adapters promising the sweep decomposition
  /// (ScenarioAdapter::fleet_sweeps). False keeps scalar per-episode
  /// stacks, each lane running its own observe() inside the same cohort
  /// step; both are byte-identical (pinned by tests/sim_fleet_sweeps_test).
  bool batched_sweeps = true;
};

/// Wall-clock span accounting for the shard-step's sweep phases: one
/// count + total-ns cell per phase, sampled cohort-granularly (one lap
/// per phase per cohort step). A pool without batched sweeps has no
/// pump..reach phases: its per-lane observe() is timed inside kPlan.
///
/// Spans measure *time*, so unlike every other fleet artifact they are
/// scheduling-dependent — both the ns totals and (with work stealing)
/// the counts. They are exported as a separate artifact and are
/// explicitly excluded from the byte-identity contract.
struct SweepSpans {
  enum Kind : std::size_t {
    kPump = 0,   ///< slab open + observe_begin + channel pump
    kDeliver,    ///< screened slab absorption
    kEstimate,   ///< sensor sampling + Kalman update_batch
    kReachGate,  ///< reach staging + predict_batch + reach run
    kPlan,       ///< world build or observe() + monitor gate + NN plan
    kAdvance,    ///< advance bookkeeping + SoA dynamics sweep
    kNumKinds,
  };

  struct Span {
    std::uint64_t count = 0;  ///< cohort-steps sampled
    std::uint64_t ns = 0;     ///< total wall-clock nanoseconds
  };

  std::array<Span, kNumKinds> spans{};

  void add(Kind kind, std::uint64_t ns) {
    Span& span = spans[kind];
    ++span.count;
    span.ns += ns;
  }

  void merge(const SweepSpans& other) {
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      spans[k].count += other.spans[k].count;
      spans[k].ns += other.spans[k].ns;
    }
  }

  /// Stable lowercase phase name ("pump", "deliver", ...).
  static const char* kind_name(std::size_t kind);
};

/// Thread-safe accumulator the workers merge their local spans into
/// (once per worker, at exit — never on the hot path).
class SweepSpanSink {
 public:
  void merge(const SweepSpans& spans) {
    const std::lock_guard<std::mutex> lock(mutex_);
    total_.merge(spans);
  }

  SweepSpans total() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

 private:
  mutable std::mutex mutex_;
  SweepSpans total_;
};

/// Optional observability sinks threaded through a fleet run. Default
/// (all null) is the untraced engine: no rings are armed, no clocks are
/// read — the disabled path stays one pointer test per seam.
struct FleetObsSinks {
  /// When non-null, every pool lane is armed with a flight-recorder ring
  /// (settings below) and triggered episodes dump their causal tail
  /// here, keyed by episode index.
  obs::FlightDumpCollector* dumps = nullptr;

  /// Ring sizing + trigger thresholds (consulted only when dumps is
  /// non-null).
  obs::FlightRecorderConfig flight{};

  /// When non-null, per-sweep wall-clock span accounting is merged here
  /// (scheduling-dependent; see SweepSpans).
  SweepSpanSink* spans = nullptr;
};

/// Lane-cohort tile of the batched shard-step: the five sweeps run over
/// cohorts of this many lanes so one cohort's episode objects stay
/// cache-resident from pump through build. Tiling only changes cross-lane
/// interleaving (lanes are independent), never any per-lane computation;
/// 64 lanes keeps a cohort's per-episode state comfortably inside L2 while
/// the SoA kernels still amortize their sweep setup.
inline constexpr std::size_t kSweepBlock = 64;

/// Consecutive steps a cohort runs before the worker moves to the next
/// one (temporal blocking). At 8k resident lanes the pool's working set
/// is far beyond L2, so stepping the whole pool at once reloads
/// every lane's episode state from L3 once per step; running one
/// L2-sized cohort for kCohortSteps steps amortizes that reload across
/// the block. Episodes are mutually independent and their records are
/// keyed by episode index, so cohort-major step order changes no output
/// byte (pinned by tests/sim_fleet_sweeps_test). The trade-off is
/// retire/refill latency — a lane that finishes mid-block idles (one
/// done() check per step) until the cohort boundary — which caps the
/// useful block length.
inline constexpr std::size_t kCohortSteps = 32;

/// Result of a fleet run: the standard batch aggregate plus the
/// deterministic metrics fold over every episode.
struct FleetResult {
  BatchStats stats;
  obs::MetricsRegistry metrics;
};

/// Converts a compact record back to the equivalent RunResult (extras
/// slot empty). Field-for-field; exists so fleet output can flow through
/// every existing RunResult consumer (campaign aggregation, metrics).
RunResult record_to_result(const FleetRecord& record);

/// FleetRecord from a finished episode's RunResult (drops the extras).
FleetRecord record_from_result(const RunResult& result);

/// Index-ordered fold of records into BatchStats — the same accumulation,
/// in the same order, as BatchStats::from_results over seed-ordered
/// results (pinned by tests/sim_fleet_test).
BatchStats stats_from_records(std::span<const FleetRecord> records);

/// Index-ordered fold of records into the metrics registry, identical to
/// collect_metrics over the seed-ordered RunResults.
void collect_record_metrics(obs::MetricsRegistry& registry,
                            std::span<const FleetRecord> records);

/// Deterministic fleet telemetry fold: fixed-bucket histograms and
/// counters over the index-ordered records — min-eta distribution,
/// rejections split by gate reason, ladder-level occupancy, and the
/// episode-length (pool residency) distribution. Byte-identical across
/// threads x pool sizes x engines (it reads only the records), so its
/// export is cmp-gated in CI alongside the flight dumps.
void collect_fleet_telemetry(obs::MetricsRegistry& registry,
                             std::span<const FleetRecord> records);

/// Same fold over seed-ordered RunResults (the campaign-cell shape).
void collect_fleet_telemetry(obs::MetricsRegistry& registry,
                             std::span<const RunResult> results);

/// Span-accounting fold: cvsafe_sweep_steps_total / cvsafe_sweep_ns_total
/// per phase label. Wall-clock — export to a separate artifact, never
/// into a cmp-gated registry.
void collect_sweep_spans(obs::MetricsRegistry& registry,
                         const SweepSpans& spans);

/// Batched planning seam: evaluates the embedded planner on every pending
/// world of a worker's pool in one call (out[i] = plan of worlds[i]).
/// Must be bit-identical per row to Episode::planner().plan() on the same
/// world — NnPlanner::plan_batch satisfies this.
template <typename World>
using FleetBatchPlanner =
    std::function<void(std::span<const World>, std::span<double>)>;

/// Factory producing one FleetBatchPlanner per worker (planners own
/// per-worker workspaces and must not be shared across threads). An empty
/// factory selects the generic path: full per-episode planner dispatch,
/// exactly as run_episode.
template <typename World>
using FleetPlannerFactory = std::function<FleetBatchPlanner<World>()>;

/// One worker's resident half of the fleet: SoA lanes for the engine-owned
/// ego state plus the per-lane runners. Lanes [0, active) are contiguous;
/// retiring compacts by swapping the last active lane down, admission
/// claims the next episode index from the shared counter into the freed
/// slot. The SoA arrays are the authoritative ego storage across the
/// dynamics step: step_batch sweeps them in one contiguous loop and the
/// runners adopt the stepped lanes via advance_commit.
template <typename World>
class EpisodePool {
 public:
  /// \p ctx, when non-null, switches admission to pool-resident stacks:
  /// every admitted episode must bind into it (the adapter promised
  /// fleet_sweeps()). The context must outlive the pool — retiring
  /// episodes release their slots into the context's free lists.
  /// \p dumps, when non-null, arms every lane with a flight-recorder
  /// ring (preallocated here, the only allocating point of the recorder
  /// path) sized/configured by \p flight; triggered episodes dump into
  /// it at retire time.
  EpisodePool(const ScenarioAdapter<World>& adapter, std::size_t lanes,
              std::uint64_t base_seed, SeedPolicy policy,
              std::atomic<std::size_t>& next_episode, std::size_t n,
              FleetStackContext* ctx = nullptr,
              obs::FlightDumpCollector* dumps = nullptr,
              const obs::FlightRecorderConfig& flight = {})
      : adapter_(&adapter),
        base_seed_(base_seed),
        policy_(policy),
        next_(&next_episode),
        n_(n),
        ctx_(ctx),
        dumps_(dumps) {
    runners_.resize(lanes);
    index_.resize(lanes, 0);
    ego_p_.resize(lanes, 0.0);
    ego_v_.resize(lanes, 0.0);
    accel_.resize(lanes, 0.0);
    if (dumps_ != nullptr) {
      // Rings are unique_ptr-held so their addresses stay stable across
      // lane compaction (episodes hold raw RingRecorder*; compaction
      // swaps the handles alongside the runners).
      rings_.reserve(lanes);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        rings_.push_back(std::make_unique<obs::RingRecorder>(flight));
      }
    }
    for (std::size_t lane = 0; lane < lanes && admit(lane); ++lane) {
      ++active_;
    }
  }

  std::size_t active() const { return active_; }
  std::size_t lane_count() const { return runners_.size(); }
  EpisodeRunner<World>& runner(std::size_t lane) { return *runners_[lane]; }
  std::size_t episode_index(std::size_t lane) const { return index_[lane]; }
  double accel(std::size_t lane) const { return accel_[lane]; }
  void set_accel(std::size_t lane, double a) { accel_[lane] = a; }

  /// Steps every active lane's ego through the shared saturating
  /// dynamics in one SoA sweep, then commits the stepped states (traffic
  /// advance + outcome classification) lane by lane. Call after every
  /// lane's acceleration has been planned and advance_begin() has run.
  /// Whole-pool form for callers driving their own step loop; the engine
  /// steps through step_cohort().
  void step_dynamics() {
    if (active_ == 0) return;
    const RunConfig& config = runners_[0]->config();
    const vehicle::DoubleIntegrator dyn(config.ego_limits);
    dyn.step_batch(ego_p_, ego_v_, accel_, config.dt_c, active_);
    for (std::size_t lane = 0; lane < active_; ++lane) {
      runners_[lane]->advance_commit(
          vehicle::VehicleState{ego_p_[lane], ego_v_[lane]});
    }
  }

  /// Subrange form of step_dynamics for the cohort step: sweeps lanes
  /// [base, end) and commits only lanes still running. A
  /// finished lane keeps riding in the SoA arrays until the
  /// cohort-boundary retire scan; its mirror is dead state (records come
  /// from the runner's result, and stage_lane refreshes live lanes every
  /// step), so sweeping it is harmless and keeps the kernel contiguous.
  void step_dynamics_range(std::size_t base, std::size_t end) {
    if (base >= end) return;
    const RunConfig& config = runners_[base]->config();
    const vehicle::DoubleIntegrator dyn(config.ego_limits);
    const std::size_t count = end - base;
    dyn.step_batch(std::span(ego_p_).subspan(base, count),
                   std::span(ego_v_).subspan(base, count),
                   std::span(accel_).subspan(base, count), config.dt_c,
                   count);
    for (std::size_t lane = base; lane < end; ++lane) {
      if (runners_[lane]->done()) continue;
      runners_[lane]->advance_commit(
          vehicle::VehicleState{ego_p_[lane], ego_v_[lane]});
    }
  }

  /// Mirrors the runner's pre-step ego into the SoA lanes (advance_begin
  /// must run first so hooks observe the pre-step state).
  void stage_lane(std::size_t lane) {
    const vehicle::VehicleState& ego = runners_[lane]->ego();
    ego_p_[lane] = ego.p;
    ego_v_[lane] = ego.v;
  }

  /// One shard-step of the lane cohort [base, end), the engine's only
  /// step: every live lane observes — through the pump, deliver,
  /// estimate and reach sweeps plus a world build with a
  /// FleetStackContext, else through its own EpisodeRunner::observe() —
  /// the monitor decides first, ONE \p batch_plan call plans the lanes it
  /// hands to kappa_n (empty \p batch_plan: per-lane plan(), exactly as
  /// run_episode), then the split advance runs. Each lane's op and RNG
  /// order is run_episode's; only cross-lane interleaving differs. Done
  /// lanes are skipped, not retired (retire_and_refill() does that at the
  /// cohort boundary). Returns false, stepping nothing, when every lane
  /// has finished. \p spans, when non-null, receives one lap per phase.
  bool step_cohort(std::size_t base, std::size_t end,
                   const FleetBatchPlanner<World>& batch_plan,
                   SweepSpans* spans = nullptr) {
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0;
    if (spans != nullptr) t0 = Clock::now();
    const auto lap = [&](SweepSpans::Kind kind) {
      if (spans == nullptr) return;
      const Clock::time_point t1 = Clock::now();
      spans->add(kind, static_cast<std::uint64_t>(
                           std::chrono::duration_cast<
                               std::chrono::nanoseconds>(t1 - t0)
                               .count()));
      t0 = t1;
    };
    const auto live = [&](std::size_t lane) {
      return !runners_[lane]->done();
    };
    if (ctx_ != nullptr) {
      ctx_->slab.clear();
      bool any_live = false;
      for (std::size_t lane = base; lane < end; ++lane) {
        // Slab lanes are positional: open one per cohort lane (empty for
        // done lanes) so slab lane i maps to pool lane base + i below.
        ctx_->slab.begin_lane();
        if (!live(lane)) continue;
        any_live = true;
        runners_[lane]->observe_begin();
        runners_[lane]->sweep_pump(ctx_->slab);
      }
      if (!any_live) return false;
      lap(SweepSpans::kPump);
      for (std::size_t lane = base; lane < end; ++lane) {
        if (!live(lane)) continue;
        const auto [first, last] = ctx_->slab.lane_range(lane - base);
        runners_[lane]->sweep_deliver(ctx_->slab, first, last);
      }
      lap(SweepSpans::kDeliver);
      for (std::size_t lane = base; lane < end; ++lane) {
        if (live(lane)) runners_[lane]->sweep_sense();
      }
      ctx_->estimator.update_batch();
      lap(SweepSpans::kEstimate);
      ctx_->reach.clear();
      for (std::size_t lane = base; lane < end; ++lane) {
        if (live(lane)) runners_[lane]->sweep_stage(ctx_->reach);
      }
      ctx_->estimator.predict_batch();
      ctx_->reach.run();
      lap(SweepSpans::kReachGate);
    }
    worlds_.clear();
    pending_.clear();
    bool any_live = false;
    for (std::size_t lane = base; lane < end; ++lane) {
      if (!live(lane)) continue;
      any_live = true;
      EpisodeRunner<World>& runner = *runners_[lane];
      if (ctx_ != nullptr) {
        runner.sweep_build();
      } else {
        runner.observe();
      }
      if (!batch_plan) {
        accel_[lane] = runner.plan();
      } else if (const auto emergency = runner.monitor_gate()) {
        accel_[lane] = *emergency;
      } else {
        pending_.push_back(lane);
        worlds_.push_back(runner.nn_world());
      }
    }
    if (!any_live) return false;
    if (!pending_.empty()) {
      plans_.resize(worlds_.size());
      batch_plan(worlds_, plans_);
      for (std::size_t j = 0; j < pending_.size(); ++j) {
        accel_[pending_[j]] = plans_[j];
      }
    }
    lap(SweepSpans::kPlan);
    for (std::size_t lane = base; lane < end; ++lane) {
      if (!live(lane)) continue;
      runners_[lane]->advance_begin(accel_[lane]);
      stage_lane(lane);
    }
    step_dynamics_range(base, end);
    lap(SweepSpans::kAdvance);
    return true;
  }

  /// Retires every finished lane into \p records (at its episode index)
  /// and refills the slot from the shared counter; compacts the active
  /// prefix when the counter is exhausted. Returns the number retired.
  std::size_t retire_and_refill(std::span<FleetRecord> records) {
    std::size_t retired = 0;
    std::size_t lane = 0;
    while (lane < active_) {
      if (!runners_[lane]->done()) {
        ++lane;
        continue;
      }
      const RunResult result = runners_[lane]->finish();
      records[index_[lane]] = record_from_result(result);
      if (!rings_.empty()) maybe_dump(lane, result);
      ++retired;
      if (admit(lane)) {
        ++lane;
        continue;
      }
      // No more episodes: compact by moving the last active lane down.
      --active_;
      if (lane != active_) {
        runners_[lane].swap(runners_[active_]);
        if (!rings_.empty()) rings_[lane].swap(rings_[active_]);
        index_[lane] = index_[active_];
        ego_p_[lane] = ego_p_[active_];
        ego_v_[lane] = ego_v_[active_];
        accel_[lane] = accel_[active_];
      }
      runners_[active_].reset();
    }
    return retired;
  }

 private:
  /// Claims the next unclaimed episode index into \p lane. The episode's
  /// RNG stream is derived from its *index*, so which worker/lane claims
  /// it cannot shift any draw.
  bool admit(std::size_t lane) {
    const std::size_t i = next_->fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return false;
    runners_[lane].emplace(*adapter_, episode_seed(base_seed_, i, policy_));
    if (ctx_ != nullptr) {
      const bool bound = runners_[lane]->bind_fleet(*ctx_);
      CVSAFE_EXPECTS(bound, "adapter promised fleet sweeps (fleet_sweeps"
                            "() true) but the episode did not bind");
    }
    if (!rings_.empty()) {
      rings_[lane]->reset();
      runners_[lane]->attach_ring(rings_[lane].get());
    }
    index_[lane] = i;
    stage_lane(lane);
    return true;
  }

  /// Trigger check + dump of a finished lane. Evaluated from per-episode
  /// state only (ring-tracked flags + the finished result), so whether
  /// and what an episode dumps is independent of scheduling. Allocation
  /// is fine here: triggering is the rare path, off the steady state.
  void maybe_dump(std::size_t lane, const RunResult& result) {
    const obs::RingRecorder& ring = *rings_[lane];
    const unsigned triggers = ring.triggers(result.eta, result.collided);
    if (triggers == 0) return;
    obs::FlightDump dump;
    dump.episode = index_[lane];
    dump.seed = episode_seed(base_seed_, index_[lane], policy_);
    dump.triggers = triggers;
    dump.eta = result.eta;
    dump.collided = result.collided;
    dump.rejections = ring.rejections();
    dump.overwritten = ring.overwritten();
    dump.events = ring.snapshot();
    dumps_->add(std::move(dump));
  }

  const ScenarioAdapter<World>* adapter_;
  std::uint64_t base_seed_;
  SeedPolicy policy_;
  std::atomic<std::size_t>* next_;
  std::size_t n_;
  FleetStackContext* ctx_;  ///< non-owning; null = scalar stacks
  obs::FlightDumpCollector* dumps_;  ///< non-owning; null = rings unarmed
  std::size_t active_ = 0;

  std::vector<std::optional<EpisodeRunner<World>>> runners_;
  /// Per-lane flight-recorder rings (empty when unarmed). unique_ptr for
  /// address stability across compaction swaps.
  std::vector<std::unique_ptr<obs::RingRecorder>> rings_;
  std::vector<std::size_t> index_;  ///< global episode index per lane
  // SoA lanes (FleetState): authoritative ego state + planned command.
  std::vector<double> ego_p_;
  std::vector<double> ego_v_;
  std::vector<double> accel_;
  // step_cohort buffers, reused across steps: capacities warm up within
  // a few steps, so the steady-state step allocates nothing.
  std::vector<World> worlds_;          ///< kappa_n inputs of pending lanes
  std::vector<std::size_t> pending_;   ///< lanes awaiting the batch plan
  std::vector<double> plans_;          ///< batch plan outputs
};

namespace detail {

/// One worker: drives its pool to exhaustion, each kSweepBlock-lane
/// cohort running up to kCohortSteps EpisodePool::step_cohort calls
/// while its episode objects sit in L2; finished lanes retire and refill
/// at the block boundary. With \p batched_sweeps (the adapter must
/// promise fleet_sweeps()) the pool binds every episode into a
/// worker-local FleetStackContext. Neither choice nor the cohort-major
/// order changes any output byte (pinned by tests/sim_fleet_sweeps_test
/// and tests/sim_fleet_differential_test).
template <typename World>
void run_fleet_worker(const ScenarioAdapter<World>& adapter,
                      std::size_t lanes, std::uint64_t base_seed,
                      SeedPolicy policy,
                      std::atomic<std::size_t>& next_episode, std::size_t n,
                      const FleetBatchPlanner<World>& batch_plan,
                      bool batched_sweeps,
                      std::span<FleetRecord> records,
                      const FleetObsSinks& sinks = {}) {
  // The context must outlive the pool: retiring runners release their
  // estimator/ladder slots into it.
  std::optional<FleetStackContext> ctx;
  if (batched_sweeps) ctx.emplace();
  EpisodePool<World> pool(adapter, lanes, base_seed, policy, next_episode,
                          n, ctx ? &*ctx : nullptr, sinks.dumps,
                          sinks.flight);
  // Span accounting: a worker-local tally, merged once at exit.
  SweepSpans local_spans;
  SweepSpans* const spans = sinks.spans != nullptr ? &local_spans : nullptr;
  while (pool.active() > 0) {
    const std::size_t active = pool.active();
    for (std::size_t base = 0; base < active; base += kSweepBlock) {
      const std::size_t end = std::min(active, base + kSweepBlock);
      for (std::size_t k = 0; k < kCohortSteps; ++k) {
        if (!pool.step_cohort(base, end, batch_plan, spans)) break;
      }
    }
    pool.retire_and_refill(records);
  }
  if (spans != nullptr) sinks.spans->merge(local_spans);
}

}  // namespace detail

/// Runs \p n episodes through the fleet engine and returns the compact
/// records in episode-index (seed) order. \p planner_factory, when
/// non-empty, enables mega-batched planning (one batch call per worker
/// shard-step); otherwise every episode dispatches its own planner.
template <typename World>
std::vector<FleetRecord> run_fleet_records(
    const ScenarioAdapter<World>& adapter, std::size_t n,
    std::uint64_t base_seed, const FleetConfig& config = {},
    const FleetPlannerFactory<World>& planner_factory = {},
    const FleetObsSinks& sinks = {}) {
  CVSAFE_EXPECTS(n > 0, "fleet must contain at least one episode");
  CVSAFE_EXPECTS(config.pool_capacity > 0,
                 "fleet pool capacity must be positive");
  std::vector<FleetRecord> records(n);
  std::size_t workers =
      config.threads != 0
          ? config.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, n);
  const std::size_t resident = std::min(config.pool_capacity, n);
  const std::size_t lanes = std::max<std::size_t>(1, resident / workers);
  std::atomic<std::size_t> next_episode{0};
  std::span<FleetRecord> out(records);
  // Batched sweeps need the adapter's promise that every episode
  // implements the sweep decomposition.
  const bool batched_sweeps = config.batched_sweeps && adapter.fleet_sweeps();
  const auto worker_body = [&] {
    const FleetBatchPlanner<World> batch_plan =
        planner_factory ? planner_factory() : FleetBatchPlanner<World>{};
    detail::run_fleet_worker(adapter, lanes, base_seed, config.policy,
                             next_episode, n, batch_plan, batched_sweeps,
                             out, sinks);
  };
  if (workers <= 1) {
    worker_body();
  } else {
    // Dedicated threads, not util::parallel_for: its small-n serial
    // fallback would let worker 0 drain the shared counter before worker
    // 1 starts, serializing 2- and 3-worker fleets.
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back(worker_body);
    }
    for (auto& t : threads) t.join();
  }
  return records;
}

/// run_fleet_records + the deterministic index-ordered folds.
template <typename World>
FleetResult run_fleet(const ScenarioAdapter<World>& adapter, std::size_t n,
                      std::uint64_t base_seed, const FleetConfig& config = {},
                      const FleetPlannerFactory<World>& planner_factory = {},
                      const FleetObsSinks& sinks = {}) {
  const std::vector<FleetRecord> records =
      run_fleet_records(adapter, n, base_seed, config, planner_factory,
                        sinks);
  FleetResult result;
  result.stats = stats_from_records(records);
  collect_record_metrics(result.metrics, records);
  return result;
}

}  // namespace cvsafe::sim
