#include "cvsafe/sim/fault_campaign.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/sim/trace.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/csv.hpp"

namespace cvsafe::sim {

bool known_scenario(const std::string& name) {
  return name == "left-turn" || name == "lane-change" ||
         name == "intersection" || name == "multi-vehicle";
}

namespace {

/// Applies the campaign's robustness posture to an episode configuration:
/// the cell's fault plan and channel, the hardened plausibility gate and
/// the armed degradation ladder.
void harden(RunConfig& config, const FaultCondition& cond) {
  config.comm = cond.comm;
  config.faults = cond.plan;
  config.gate = filter::GateConfig::hardened();
  config.ladder = core::LadderConfig{};
}

/// One cell's episode batch, traced (recorder mounted, JSONL appended to
/// \p trace in seed order) or plain.
template <typename World>
std::vector<RunResult> run_cell_episodes(const ScenarioAdapter<World>& adapter,
                                         std::size_t episodes,
                                         std::uint64_t seed,
                                         std::size_t threads,
                                         std::ostream* trace,
                                         const std::string& fault_label,
                                         const FleetObsSinks& sinks) {
  if (trace == nullptr) {
    // Untraced cells run on the fleet engine: pooled episodes with
    // work-stealing refill instead of one task per episode. Results are
    // seed-ordered and per-episode bit-identical to run_episodes, so the
    // cell aggregation (and the golden campaign CSV) is byte-identical.
    FleetConfig fleet;
    fleet.threads = threads;
    fleet.policy = SeedPolicy::kDerived;
    return run_fleet_records(adapter, episodes, seed, fleet, {}, sinks);
  }
  return run_traced_episodes(adapter, episodes, seed, threads,
                             SeedPolicy::kDerived, *trace,
                             std::string(adapter.name()), fault_label);
}

}  // namespace

FaultCondition FaultCondition::preset(const std::string& name) {
  if (name == "burst") {
    FaultCondition cond;
    cond.label = "burst";
    cond.plan = fault::FaultPlan::none();
    cond.plan.name = "burst";
    cond.comm = comm::CommConfig::bursty(/*bad_fraction=*/0.3,
                                         /*mean_burst_len=*/5.0,
                                         /*delay=*/0.1);
    return cond;
  }
  const auto plan = fault::FaultPlan::preset(name);
  CVSAFE_EXPECTS(plan.has_value(), "unknown campaign fault condition");
  FaultCondition cond;
  cond.label = name;
  cond.plan = *plan;
  cond.comm = comm::CommConfig::delayed(/*drop_prob=*/0.2, /*delay=*/0.25);
  return cond;
}

std::vector<RunResult> run_campaign_cell(const std::string& scenario,
                                         const FaultCondition& cond,
                                         std::size_t episodes,
                                         std::uint64_t seed,
                                         std::size_t threads,
                                         std::ostream* trace,
                                         const FleetObsSinks& sinks) {
  if (scenario == "left-turn") {
    LeftTurnSimConfig config = LeftTurnSimConfig::paper_defaults();
    harden(config, cond);
    AgentBlueprint bp;
    bp.name = "expert-compound";
    bp.scenario = config.make_scenario();
    bp.sensor = config.sensor;
    bp.config = AgentConfig::ultimate_compound();
    bp.config.use_expert_planner = true;
    bp.config.gate = config.gate;
    bp.config.ladder = config.ladder;
    LeftTurnAdapter adapter(config, bp);
    return run_cell_episodes(adapter, episodes, seed, threads, trace,
                             cond.label, sinks);
  }
  if (scenario == "lane-change") {
    LaneChangeSimConfig config;
    harden(config, cond);
    LaneChangeAdapter adapter(config, LaneChangePlannerConfig{});
    return run_cell_episodes(adapter, episodes, seed, threads, trace,
                             cond.label, sinks);
  }
  if (scenario == "intersection") {
    IntersectionSimConfig config;
    harden(config, cond);
    IntersectionAdapter adapter(config, /*use_compound=*/true);
    return run_cell_episodes(adapter, episodes, seed, threads, trace,
                             cond.label, sinks);
  }
  CVSAFE_EXPECTS(scenario == "multi-vehicle",
                 "unknown campaign scenario");
  LeftTurnSimConfig config = LeftTurnSimConfig::paper_defaults();
  harden(config, cond);
  MultiAgentSetup setup;
  setup.scenario = config.make_scenario();  // net == nullptr -> expert
  MultiVehicleAdapter adapter(config, MultiVehicleConfig{}, setup);
  return run_cell_episodes(adapter, episodes, seed, threads, trace,
                           cond.label, sinks);
}

CampaignCell aggregate_cell(std::string fault, std::string scenario,
                            std::span<const RunResult> results) {
  // min_eta/mean_eta must come from the batch, never the struct's 0.0
  // defaults: folding min against a default 0.0 would mask an
  // all-positive minimum, and an empty batch would report a fabricated
  // mean of 0.0 as if it were measured.
  CVSAFE_EXPECTS(!results.empty(),
                 "cell aggregation needs at least one episode");
  CampaignCell cell;
  cell.fault = std::move(fault);
  cell.scenario = std::move(scenario);
  cell.episodes = results.size();
  cell.min_eta = results.front().eta;
  double eta_sum = 0.0;
  for (const RunResult& r : results) {
    if (r.collided) ++cell.collisions;
    if (r.reached) ++cell.reached;
    cell.steps += r.steps;
    cell.emergency_steps += r.emergency_steps;
    for (std::size_t i = 0; i < cell.ladder_steps.size(); ++i) {
      cell.ladder_steps[i] += r.ladder_steps[i];
    }
    cell.ladder_transitions += r.ladder_transitions;
    cell.messages_accepted += r.messages_accepted;
    cell.messages_rejected += r.messages_rejected;
    eta_sum += r.eta;
    cell.min_eta = std::min(cell.min_eta, r.eta);
  }
  cell.mean_eta = eta_sum / static_cast<double>(results.size());
  return cell;
}

void CampaignConfig::validate() const {
  CVSAFE_EXPECTS(!faults.empty() && !scenarios.empty(),
                 "campaign axes must be non-empty");
  CVSAFE_EXPECTS(episodes_per_cell >= 1,
                 "campaign needs at least one episode per cell");
  for ([[maybe_unused]] const auto& f : faults) {
    CVSAFE_EXPECTS(f == "burst" || fault::FaultPlan::preset(f).has_value(),
                   "unknown campaign fault condition");
  }
  for ([[maybe_unused]] const auto& s : scenarios) {
    CVSAFE_EXPECTS(known_scenario(s), "unknown campaign scenario");
  }
}

CampaignConfig CampaignConfig::ci() {
  CampaignConfig c;
  c.faults = {"delay-jitter", "reorder-duplicate", "corruption", "blackout",
              "burst"};
  c.scenarios = {"left-turn", "lane-change", "intersection",
                 "multi-vehicle"};
  c.episodes_per_cell = 8;
  c.base_seed = 2026;
  return c;
}

CampaignConfig CampaignConfig::smoke() {
  CampaignConfig c;
  c.faults = {"corruption", "blackout"};
  c.scenarios = {"left-turn", "intersection"};
  c.episodes_per_cell = 2;
  c.base_seed = 2026;
  return c;
}

bool CampaignResult::invariant_ok() const {
  return std::all_of(cells.begin(), cells.end(),
                     [](const CampaignCell& c) { return c.invariant_ok(); });
}

std::size_t CampaignResult::violations() const {
  std::size_t total = 0;
  for (const CampaignCell& c : cells) total += c.collisions;
  return total;
}

CampaignResult run_fault_campaign(const CampaignConfig& config,
                                  std::ostream* trace_os,
                                  const CampaignObs* observe) {
  config.validate();
  CampaignResult result;
  result.cells.reserve(config.faults.size() * config.scenarios.size());
  // One collector serves every cell: it is drained (take_sorted) after
  // each cell so the JSONL stays in deterministic (cell-major,
  // episode-minor) order regardless of retirement interleaving.
  obs::FlightDumpCollector dumps;
  FleetObsSinks sinks;
  if (observe != nullptr) {
    sinks.flight = observe->flight;
    sinks.dumps = observe->flight_os != nullptr ? &dumps : nullptr;
    sinks.spans = observe->spans;
  }
  for (std::size_t fi = 0; fi < config.faults.size(); ++fi) {
    const FaultCondition cond = FaultCondition::preset(config.faults[fi]);
    for (std::size_t si = 0; si < config.scenarios.size(); ++si) {
      const std::uint64_t cell_seed =
          util::derive_seed(util::derive_seed(config.base_seed, fi), si);
      const auto episodes = run_campaign_cell(
          config.scenarios[si], cond, config.episodes_per_cell, cell_seed,
          config.threads, trace_os, sinks);
      if (observe != nullptr) {
        if (observe->flight_os != nullptr) {
          obs::write_flight_dumps_jsonl(*observe->flight_os,
                                        dumps.take_sorted(),
                                        config.scenarios[si], cond.label);
        }
        if (observe->metrics != nullptr) {
          collect_fleet_telemetry(*observe->metrics, episodes);
        }
      }
      result.cells.push_back(
          aggregate_cell(cond.label, config.scenarios[si], episodes));
    }
  }
  return result;
}

void write_campaign_csv(std::ostream& os, const CampaignResult& result) {
  os << "fault,scenario,episodes,collisions,reached,steps,emergency_steps,"
        "ladder_full,ladder_reach_only,ladder_sensor_only,"
        "ladder_emergency_biased,ladder_transitions,messages_accepted,"
        "messages_rejected,min_eta,mean_eta\n";
  for (const CampaignCell& c : result.cells) {
    os << c.fault << ',' << c.scenario << ',' << c.episodes << ','
       << c.collisions << ',' << c.reached << ',' << c.steps << ','
       << c.emergency_steps;
    for (const std::size_t n : c.ladder_steps) os << ',' << n;
    os << ',' << c.ladder_transitions << ',' << c.messages_accepted << ','
       << c.messages_rejected << ',' << util::format_exact(c.min_eta) << ','
       << util::format_exact(c.mean_eta) << '\n';
  }
}

std::string campaign_csv(const CampaignResult& result) {
  std::ostringstream os;
  write_campaign_csv(os, result);
  return os.str();
}

}  // namespace cvsafe::sim
