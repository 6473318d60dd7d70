#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <vector>

#include "cvsafe/sim/fleet.hpp"

/// \file replica.hpp
/// The traced replica of the fleet engine's worker, for per-layer timing
/// measured from outside the library.
///
/// traced_fleet_records() makes the same public calls, in the same per-lane
/// order, as sim::run_fleet_records at one worker thread
/// (sim::detail::run_fleet_worker): pool construction, the cohort-blocked
/// sweeps (kSweepBlock lanes x kCohortSteps steps) or the reference
/// per-lane loop, and retire/refill at the same boundaries. It only adds a
/// steady_clock lap after each layer and splits the build/gate loop and the
/// observe/plan loop in two, which keeps every lane's own call order and
/// changes only cross-lane interleaving (lanes are independent). Its
/// records must equal production's field for field; the benchmark checks
/// that on every traced run, and the time ratio between the two
/// (sim.replica_ratio) is both the tracing overhead and a fidelity check.

namespace cvsafe_e2e {

using Clock = std::chrono::steady_clock;

/// Every span the replica and the workloads record. The names are
/// module-qualified, as in the metric names.
enum Layer : std::uint32_t {
  kPump = 0,    ///< observe_begin + sweep_pump
  kDeliver,     ///< sweep_deliver
  kEstimate,    ///< sweep_sense + FleetEstimator::update_batch
  kReach,       ///< sweep_stage + predict_batch + ReachSweep::run
  kBuild,       ///< sweep_build
  kGate,        ///< monitor_gate + nn_world (batched kappa_n only)
  kInfer,       ///< the batched kappa_n call (NnPlanner::plan_batch)
  kPlan,        ///< per-lane EpisodeRunner::plan (no batch planner)
  kObserve,     ///< per-lane EpisodeRunner::observe (reference loop)
  kAdvance,     ///< advance_begin + stage_lane + the SoA dynamics step
  kRetire,      ///< EpisodePool::retire_and_refill
  kPoolBuild,   ///< FleetStackContext + EpisodePool constructors
  kTelemetry,   ///< collect_fleet_telemetry
  kDump,        ///< take_sorted + write_flight_dumps_jsonl
  kAskTell,     ///< Optimizer::ask + Optimizer::tell
  kDecode,      ///< ParamSpace::decode + ParamSpace::admits
  kCell,        ///< one campaign cell / search candidate (parent span)
  kStep,        ///< one cohort-step (sweeps) or pool step (per-lane loop)
  kFleet,       ///< one replica fleet call (parent span)
  kNumLayers,
};

inline const char* layer_name(std::uint32_t layer) {
  static constexpr std::array<const char*, kNumLayers> kNames = {
      "comm.pump",      "filter.deliver", "filter.estimate", "filter.reach",
      "scenario.build", "core.gate",      "nn.infer",        "core.plan",
      "sim.observe",    "vehicle.advance", "sim.retire",     "sim.pool_build",
      "obs.telemetry",  "obs.dump",       "adv.ask_tell",    "adv.decode",
      "sim.cell",       "sim.step",       "sim.fleet"};
  return layer < kNumLayers ? kNames[layer] : "unknown";
}

/// Busy time per layer plus the counts the per-layer ratios divide by.
struct Tally {
  std::array<std::uint64_t, kNumLayers> ns{};
  std::uint64_t sweep_lane_steps = 0;    ///< live lanes over cohort-steps
  std::uint64_t perlane_lane_steps = 0;  ///< active lanes over pool steps
  std::uint64_t idle_lane_slots = 0;     ///< done lanes riding in a cohort
  std::uint64_t infer_calls = 0;
  std::uint64_t infer_rows = 0;
  std::uint64_t pools = 0;
  std::uint64_t episodes = 0;

  std::uint64_t lane_steps() const {
    return sweep_lane_steps + perlane_lane_steps;
  }

  Tally& operator+=(const Tally& other) {
    for (std::size_t k = 0; k < ns.size(); ++k) ns[k] += other.ns[k];
    sweep_lane_steps += other.sweep_lane_steps;
    perlane_lane_steps += other.perlane_lane_steps;
    idle_lane_slots += other.idle_lane_slots;
    infer_calls += other.infer_calls;
    infer_rows += other.infer_rows;
    pools += other.pools;
    episodes += other.episodes;
    return *this;
  }
};

/// In-memory span log plus layer tally. One lap is one steady_clock read:
/// the span of a layer runs from the previous lap to this one, so the
/// layers of a step tile it with no gaps. Spans are written out (Chrome
/// trace-event JSON) only after the run.
class Tracer {
 public:
  struct Span {
    std::uint32_t layer = 0;
    std::uint32_t parent = kNoParent;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while the span is open
  };
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  /// Drops every span and the tally; later timestamps count from here.
  void reset() {
    spans_.clear();
    tally_ = Tally{};
    current_ = kNoParent;
    epoch_ = Clock::now();
  }

  /// Opens a parent span starting at \p t; laps until close() nest in it.
  std::uint32_t open(Layer layer, Clock::time_point t) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{layer, current_, since_epoch(t), -1});
    current_ = id;
    return id;
  }

  void close(std::uint32_t id, Clock::time_point t) {
    spans_[id].end_ns = since_epoch(t);
    current_ = spans_[id].parent;
  }

  /// Closes the still-childless span \p id by removing it (a cohort-step
  /// that found no live lane).
  void discard(std::uint32_t id) {
    current_ = spans_[id].parent;
    if (id + 1 == spans_.size()) spans_.pop_back();
  }

  /// Ends the \p layer span that began at \p t0; returns its end, which is
  /// the start of the next lap.
  Clock::time_point lap(Layer layer, Clock::time_point t0) {
    const Clock::time_point t1 = Clock::now();
    tally_.ns[layer] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    spans_.push_back(Span{layer, current_, since_epoch(t0), since_epoch(t1)});
    return t1;
  }

  Tally& tally() { return tally_; }

  /// Returns the tally accumulated since the last take and zeroes it
  /// (spans stay).
  Tally take_tally() {
    const Tally out = tally_;
    tally_ = Tally{};
    return out;
  }

  /// Chrome trace-event JSON ("X" events, microseconds): every closed
  /// span with its id and parent id in args.
  void write_chrome_json(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      const long long parent =
          s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent);
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                    first ? "" : ",\n", layer_name(s.layer),
                    static_cast<double>(s.begin_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i,
                    parent);
      os << buf;
      first = false;
    }
    os << "]}\n";
  }

 private:
  std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  std::vector<Span> spans_;
  Tally tally_;
  std::uint32_t current_ = kNoParent;
  Clock::time_point epoch_ = Clock::now();
};

/// sim::run_fleet_records(adapter, n, base_seed, config, planner_factory,
/// sinks) at one worker thread, lapped into \p tr. config.threads is
/// ignored (the replica is the 1-thread engine); sinks.spans must be null
/// (the replica is its own span accounting).
template <typename World>
std::vector<cvsafe::sim::FleetRecord> traced_fleet_records(
    const cvsafe::sim::ScenarioAdapter<World>& adapter, std::size_t n,
    std::uint64_t base_seed, const cvsafe::sim::FleetConfig& config,
    const cvsafe::sim::FleetPlannerFactory<World>& planner_factory,
    const cvsafe::sim::FleetObsSinks& sinks, Tracer& tr) {
  namespace sim = cvsafe::sim;
  if (n == 0 || config.pool_capacity == 0 || sinks.spans != nullptr) {
    throw std::invalid_argument("traced_fleet_records: bad arguments");
  }
  std::vector<sim::FleetRecord> records(n);
  const std::size_t lanes =
      std::max<std::size_t>(1, std::min(config.pool_capacity, n));
  std::atomic<std::size_t> next_episode{0};
  const bool batched_sweeps = config.batched_sweeps && adapter.fleet_sweeps();
  Tally& tally = tr.tally();

  Clock::time_point t = Clock::now();
  const std::uint32_t fleet_span = tr.open(kFleet, t);
  const sim::FleetBatchPlanner<World> batch_plan =
      planner_factory ? planner_factory() : sim::FleetBatchPlanner<World>{};
  std::optional<sim::FleetStackContext> ctx;
  if (batched_sweeps) ctx.emplace();
  sim::EpisodePool<World> pool(adapter, lanes, base_seed, config.policy,
                               next_episode, n, ctx ? &*ctx : nullptr,
                               sinks.dumps, sinks.flight);
  t = tr.lap(kPoolBuild, t);

  std::vector<World> worlds;
  std::vector<std::size_t> pending;
  std::vector<double> plans;
  const auto infer = [&] {
    plans.resize(worlds.size());
    batch_plan(worlds, plans);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      pool.set_accel(pending[j], plans[j]);
    }
    ++tally.infer_calls;
    tally.infer_rows += worlds.size();
    t = tr.lap(kInfer, t);
  };
  // Lane decision after the world is built: the monitor gate, with kappa_n
  // deferred to the batch, or the full per-lane plan without a batch
  // planner. Same per-lane calls as the production loop.
  const auto decide = [&](std::size_t lane) {
    sim::EpisodeRunner<World>& runner = pool.runner(lane);
    if (batch_plan) {
      if (const auto emergency = runner.monitor_gate()) {
        pool.set_accel(lane, *emergency);
      } else {
        pending.push_back(lane);
        worlds.push_back(runner.nn_world());
      }
    } else {
      pool.set_accel(lane, runner.plan());
    }
  };
  const Layer decide_layer = batch_plan ? kGate : kPlan;

  while (pool.active() > 0) {
    const std::size_t active = pool.active();
    if (ctx) {
      for (std::size_t base = 0; base < active; base += sim::kSweepBlock) {
        const std::size_t end = std::min(active, base + sim::kSweepBlock);
        for (std::size_t k = 0; k < sim::kCohortSteps; ++k) {
          worlds.clear();
          pending.clear();
          ctx->slab.clear();
          const std::uint32_t step_span = tr.open(kStep, t);
          std::size_t live = 0;
          for (std::size_t lane = base; lane < end; ++lane) {
            ctx->slab.begin_lane();
            sim::EpisodeRunner<World>& runner = pool.runner(lane);
            if (runner.done()) continue;
            ++live;
            runner.observe_begin();
            runner.sweep_pump(ctx->slab);
          }
          if (live == 0) {
            tr.discard(step_span);
            break;
          }
          tally.sweep_lane_steps += live;
          tally.idle_lane_slots += (end - base) - live;
          t = tr.lap(kPump, t);
          for (std::size_t lane = base; lane < end; ++lane) {
            if (pool.runner(lane).done()) continue;
            const auto [first, last] = ctx->slab.lane_range(lane - base);
            pool.runner(lane).sweep_deliver(ctx->slab, first, last);
          }
          t = tr.lap(kDeliver, t);
          for (std::size_t lane = base; lane < end; ++lane) {
            if (pool.runner(lane).done()) continue;
            pool.runner(lane).sweep_sense();
          }
          ctx->estimator.update_batch();
          t = tr.lap(kEstimate, t);
          ctx->reach.clear();
          for (std::size_t lane = base; lane < end; ++lane) {
            if (pool.runner(lane).done()) continue;
            pool.runner(lane).sweep_stage(ctx->reach);
          }
          ctx->estimator.predict_batch();
          ctx->reach.run();
          t = tr.lap(kReach, t);
          for (std::size_t lane = base; lane < end; ++lane) {
            if (pool.runner(lane).done()) continue;
            pool.runner(lane).sweep_build();
          }
          t = tr.lap(kBuild, t);
          for (std::size_t lane = base; lane < end; ++lane) {
            if (pool.runner(lane).done()) continue;
            decide(lane);
          }
          t = tr.lap(decide_layer, t);
          if (!pending.empty()) infer();
          for (std::size_t lane = base; lane < end; ++lane) {
            if (pool.runner(lane).done()) continue;
            pool.runner(lane).advance_begin(pool.accel(lane));
            pool.stage_lane(lane);
          }
          pool.step_dynamics_range(base, end);
          t = tr.lap(kAdvance, t);
          tr.close(step_span, t);
        }
      }
      pool.retire_and_refill(records);
      t = tr.lap(kRetire, t);
    } else {
      worlds.clear();
      pending.clear();
      const std::uint32_t step_span = tr.open(kStep, t);
      for (std::size_t lane = 0; lane < active; ++lane) {
        pool.runner(lane).observe();
      }
      tally.perlane_lane_steps += active;
      t = tr.lap(kObserve, t);
      for (std::size_t lane = 0; lane < active; ++lane) decide(lane);
      t = tr.lap(decide_layer, t);
      if (!pending.empty()) infer();
      for (std::size_t lane = 0; lane < pool.active(); ++lane) {
        pool.runner(lane).advance_begin(pool.accel(lane));
        pool.stage_lane(lane);
      }
      pool.step_dynamics();
      t = tr.lap(kAdvance, t);
      tr.close(step_span, t);
      pool.retire_and_refill(records);
      t = tr.lap(kRetire, t);
    }
  }
  tr.close(fleet_span, t);
  ++tally.pools;
  tally.episodes += n;
  return records;
}

}  // namespace cvsafe_e2e
