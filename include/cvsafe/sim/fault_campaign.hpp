#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cvsafe/comm/channel.hpp"
#include "cvsafe/core/degradation.hpp"
#include "cvsafe/fault/fault_plan.hpp"
#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/run_result.hpp"

/// \file fault_campaign.hpp
/// End-to-end safety-invariant campaign: a fault-condition x scenario
/// matrix of closed-loop batches, each episode run with the hardened
/// plausibility gate and the degradation ladder armed, asserting the
/// framework's guarantee eta(kappa_c) >= 0 (no unsafe-set entry) under
/// every injected failure mode.
///
/// Determinism: cell seeds derive from (base seed, fault index, scenario
/// index) and episodes use SeedPolicy::kDerived, so the campaign CSV is
/// byte-identical across runs and thread counts.

namespace cvsafe::sim {

/// One (fault condition, scenario) cell aggregate.
struct CampaignCell {
  std::string fault;     ///< fault-axis label
  std::string scenario;  ///< scenario-axis label
  std::size_t episodes = 0;
  std::size_t collisions = 0;  ///< unsafe-set entries (must stay 0)
  std::size_t reached = 0;
  std::size_t steps = 0;
  std::size_t emergency_steps = 0;
  std::array<std::size_t, core::kNumDegradationLevels> ladder_steps{};
  std::size_t ladder_transitions = 0;
  std::size_t messages_accepted = 0;
  std::size_t messages_rejected = 0;
  double min_eta = 0.0;
  double mean_eta = 0.0;

  /// The paper's guarantee, per cell: no episode entered X_u.
  bool invariant_ok() const { return collisions == 0; }

  /// Hardened-gate rejection rate over the cell's message traffic
  /// (0 when the cell saw no messages). The adversarial search layer's
  /// stealth screen consumes this.
  double rejection_rate() const {
    const std::size_t total = messages_accepted + messages_rejected;
    return total == 0 ? 0.0
                      : static_cast<double>(messages_rejected) /
                            static_cast<double>(total);
  }
};

/// One resolved point on a campaign's fault axis: the decorator plan plus
/// the comm-layer disturbance it rides on. The campaign builds these from
/// preset names; the adversarial search layer (cvsafe::adv) synthesizes
/// them from optimizer candidates.
struct FaultCondition {
  std::string label;
  fault::FaultPlan plan;
  comm::CommConfig comm;

  /// Resolves a campaign fault-axis name: a FaultPlan preset name (over
  /// the paper's "messages delayed" channel, drop 0.2 / dt_d 0.25 s) or
  /// "burst" (plain Gilbert-Elliott channel, no decorator faults).
  /// Contract-fails on unknown names.
  static FaultCondition preset(const std::string& name);
};

/// Runs one hardened episode batch (plausibility gate hardened(),
/// degradation ladder armed) of \p scenario under \p cond. Untraced cells
/// run on the fleet engine (mega-batched planning, byte-identical across
/// thread counts); when \p trace is non-null every episode runs with an
/// obs::Recorder mounted and JSONL is appended in seed order. Results are
/// seed-ordered. Scenario names as CampaignConfig: "left-turn",
/// "lane-change", "intersection", "multi-vehicle".
///
/// \p sinks wires fleet-engine observability into the untraced path:
/// per-lane flight recorders (sinks.dumps + sinks.flight) and per-phase
/// span accounting (sinks.spans). Traced cells ignore it — they already
/// carry full causal JSONL through the mounted recorder.
std::vector<RunResult> run_campaign_cell(const std::string& scenario,
                                         const FaultCondition& cond,
                                         std::size_t episodes,
                                         std::uint64_t seed,
                                         std::size_t threads,
                                         std::ostream* trace = nullptr,
                                         const FleetObsSinks& sinks = {});

/// Folds a seed-ordered result vector into one cell aggregate. min_eta /
/// mean_eta initialize from the first episode (never from the struct's
/// 0.0 defaults, which would mask an all-positive minimum); requires a
/// non-empty batch.
CampaignCell aggregate_cell(std::string fault, std::string scenario,
                            std::span<const RunResult> results);

/// Campaign shape: which fault conditions against which scenarios.
///
/// Fault-axis names are FaultPlan preset names plus "burst", which runs
/// the plain Gilbert-Elliott bursty channel (comm-layer disturbance, no
/// decorator faults). Every non-burst cell additionally runs the paper's
/// "messages delayed" channel (drop 0.2, dt_d 0.25 s), so decorator
/// faults compound with a realistic baseline disturbance.
struct CampaignConfig {
  std::vector<std::string> faults;
  std::vector<std::string> scenarios;
  std::size_t episodes_per_cell = 8;
  std::uint64_t base_seed = 2026;
  std::size_t threads = 0;  ///< 0 = hardware concurrency

  /// Contract check: non-empty axes, episodes >= 1, fault names known.
  void validate() const;

  /// The CI matrix: every fault condition x every scenario x 8 seeds.
  static CampaignConfig ci();

  /// A two-cell subset for fast unit tests.
  static CampaignConfig smoke();
};

/// The finished campaign: cells in (fault-major, scenario-minor) order.
struct CampaignResult {
  std::vector<CampaignCell> cells;

  bool invariant_ok() const;
  std::size_t violations() const;  ///< total unsafe-set entries
};

/// Optional campaign observability, all opt-in and orthogonal:
/// triggered flight-recorder dumps, streaming safety telemetry and
/// per-phase wall-clock accounting.
struct CampaignObs {
  /// Ring sizing + trigger thresholds of the per-lane flight recorders.
  obs::FlightRecorderConfig flight{};

  /// When non-null every untraced cell runs with a flight-recorder ring
  /// armed per pool lane and each cell's *triggered* dumps are appended
  /// here as JSONL labeled with the cell's scenario/fault, in
  /// (cell-major, episode-minor) order — byte-identical across runs,
  /// thread counts, pool sizes and engines, like the campaign CSV.
  std::ostream* flight_os = nullptr;

  /// When non-null each cell's seed-ordered results fold into the
  /// registry: min-eta distribution, per-reason rejection counters,
  /// ladder occupancy and episode residency. Deterministic — the fold
  /// walks episode order, never completion order.
  obs::MetricsRegistry* metrics = nullptr;

  /// When non-null the fleet workers' per-phase span accounting (count +
  /// total ns per observe/plan/infer/advance phase of the cohort step)
  /// merges here. Spans are wall-clock measurements: both counts and
  /// durations depend on work-stealing schedules, so they belong in a
  /// separate artifact and are never byte-compared.
  SweepSpanSink* spans = nullptr;
};

/// Runs the campaign matrix. Within a cell episodes run in parallel
/// (threads as configured); cells run sequentially. When \p trace_os is
/// non-null every episode runs with an obs::Recorder mounted and the
/// combined trace is written as JSONL in (cell-major, seed-minor) order
/// — byte-identical across runs and thread counts like the CSV. \p
/// observe (may be null) wires the flight recorder / telemetry /
/// span sinks described on CampaignObs through every untraced cell.
CampaignResult run_fault_campaign(const CampaignConfig& config,
                                  std::ostream* trace_os = nullptr,
                                  const CampaignObs* observe = nullptr);

/// Serializes the campaign as a CSV (header + one row per cell, doubles
/// at %.17g) — byte-stable across runs, threads and platforms with the
/// same floating-point behavior.
void write_campaign_csv(std::ostream& os, const CampaignResult& result);

/// write_campaign_csv into a string.
std::string campaign_csv(const CampaignResult& result);

}  // namespace cvsafe::sim
