#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>
#include <span>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "cvsafe/adv/optimizer.hpp"
#include "cvsafe/adv/param_space.hpp"
#include "cvsafe/adv/search.hpp"
#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/sim/fault_campaign.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/sim/trace.hpp"

namespace cvsafe_e2e {
namespace {

namespace sim = cvsafe::sim;
namespace adv = cvsafe::adv;
namespace obs = cvsafe::obs;
using cvsafe::scenario::LeftTurnWorld;

/// Stream index of the oracle's episode seeds, disjoint from the seeds the
/// fleet reps run.
constexpr std::uint64_t kOracleStream = 0x0AC1E;

/// Episodes of a rep checked one by one against run_episode.
constexpr std::size_t kScalarChecked = 256;

/// Resident episodes of the left-turn fleets. Smaller than an nt rep, so
/// workers refill from the shared counter and a worker on a slow core
/// claims fewer episodes instead of holding the whole rep back; larger
/// than a 1t rep, so the 1t pool holds every episode at once.
constexpr std::size_t kPoolCapacity = 1024;

// --- comparisons ------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_record(const sim::FleetRecord& a, const sim::FleetRecord& b) {
  return same_bits(a.eta, b.eta) && same_bits(a.reach_time, b.reach_time) &&
         a.steps == b.steps && a.emergency_steps == b.emergency_steps &&
         a.ladder_steps == b.ladder_steps &&
         a.ladder_transitions == b.ladder_transitions &&
         a.messages_accepted == b.messages_accepted &&
         a.messages_rejected == b.messages_rejected &&
         a.rejection_reasons == b.rejection_reasons &&
         a.collided == b.collided && a.reached == b.reached;
}

bool same_cell(const sim::CampaignCell& a, const sim::CampaignCell& b) {
  return a.fault == b.fault && a.scenario == b.scenario &&
         a.episodes == b.episodes && a.collisions == b.collisions &&
         a.reached == b.reached && a.steps == b.steps &&
         a.emergency_steps == b.emergency_steps &&
         a.ladder_steps == b.ladder_steps &&
         a.ladder_transitions == b.ladder_transitions &&
         a.messages_accepted == b.messages_accepted &&
         a.messages_rejected == b.messages_rejected &&
         same_bits(a.min_eta, b.min_eta) && same_bits(a.mean_eta, b.mean_eta);
}

Counts count_records(std::span<const sim::FleetRecord> records) {
  Counts c;
  for (const sim::FleetRecord& r : records) {
    ++c.episodes;
    if (r.collided) ++c.unsafe;
    c.steps += r.steps;
    c.emergency_steps += r.emergency_steps;
    c.accepted += r.messages_accepted;
    c.rejected += r.messages_rejected;
  }
  return c;
}

void count_cell(Counts& c, const sim::CampaignCell& cell) {
  c.episodes += cell.episodes;
  c.unsafe += cell.collisions;
  c.steps += cell.steps;
  c.emergency_steps += cell.emergency_steps;
  c.accepted += cell.messages_accepted;
  c.rejected += cell.messages_rejected;
}

std::vector<sim::RunResult> to_results(
    std::span<const sim::FleetRecord> records) {
  std::vector<sim::RunResult> results;
  results.reserve(records.size());
  for (const sim::FleetRecord& r : records) {
    results.push_back(sim::record_to_result(r));
  }
  return results;
}

/// A null output stream that keeps a byte count and an order-sensitive
/// 64-bit digest of what was written, so flight-dump JSONL can be costed
/// without I/O and still compared between production and the replica.
class DigestBuf final : public std::streambuf {
 public:
  std::size_t bytes() const { return bytes_; }

  std::uint64_t digest() const {
    std::uint64_t h = hash_;
    if (fill_ > 0) h = mix(h, acc_);
    return mix(h, bytes_);
  }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto len = static_cast<std::size_t>(n);
    bytes_ += len;
    std::size_t i = 0;
    while (i < len) {
      if (fill_ == 0 && len - i >= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, s + i, 8);
        hash_ = mix(hash_, word);
        i += 8;
        continue;
      }
      acc_ |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[i]))
              << (8 * fill_);
      ++i;
      if (++fill_ == 8) {
        hash_ = mix(hash_, acc_);
        acc_ = 0;
        fill_ = 0;
      }
    }
    return n;
  }

 private:
  static std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
    h = (h ^ word) * 0x100000001b3ULL;
    return h ^ (h >> 29);
  }

  std::size_t bytes_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

// --- shared per-layer folds ---------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double per(const Tally& t, Layer layer, std::uint64_t den) {
  return ratio(static_cast<double>(t.ns[layer]), static_cast<double>(den));
}

/// The per-layer metrics every workload reports: engine layers from the
/// replica's tally, exact counts from its outcomes.
void engine_layers(const Tally& t, const Counts& c, LayerValues& v) {
  const std::uint64_t sweep = t.sweep_lane_steps;
  v["comm.pump_ns_per_lane_step"] = per(t, kPump, sweep);
  v["filter.deliver_ns_per_lane_step"] = per(t, kDeliver, sweep);
  v["filter.estimate_ns_per_lane_step"] = per(t, kEstimate, sweep);
  v["filter.reach_ns_per_lane_step"] = per(t, kReach, sweep);
  v["scenario.build_ns_per_lane_step"] = per(t, kBuild, sweep);
  v["core.gate_ns_per_lane_step"] = per(t, kGate, t.lane_steps());
  v["nn.infer_ns_per_lane_step"] = per(t, kInfer, t.lane_steps());
  v["nn.infer_ns_per_row"] = per(t, kInfer, t.infer_rows);
  v["nn.rows_per_call"] = ratio(static_cast<double>(t.infer_rows),
                                static_cast<double>(t.infer_calls));
  v["vehicle.advance_ns_per_lane_step"] = per(t, kAdvance, t.lane_steps());
  v["sim.retire_ns_per_episode"] = per(t, kRetire, t.episodes);
  v["sim.pool_build_ms"] = per(t, kPoolBuild, t.pools) / 1e6;
  v["sim.lane_steps"] = static_cast<double>(t.lane_steps());
  v["sim.idle_lane_frac"] =
      ratio(static_cast<double>(t.idle_lane_slots),
            static_cast<double>(t.idle_lane_slots + t.sweep_lane_steps));
  const auto steps = static_cast<double>(c.steps);
  const auto messages = static_cast<double>(c.accepted + c.rejected);
  v["core.emergency_frac"] =
      ratio(static_cast<double>(c.emergency_steps), steps);
  v["filter.reject_frac"] = ratio(static_cast<double>(c.rejected), messages);
  v["comm.messages_per_lane_step"] = ratio(messages, steps);
  v["sim.unsafe_frac"] = ratio(static_cast<double>(c.unsafe),
                               static_cast<double>(c.episodes));
}

// --- scalar oracle --------------------------------------------------------

/// Appends \p count per-step latencies of run_episode's loop over the
/// episodes episode_seed(seed, i, kDerived), i = 0, 1, ... of \p adapter,
/// with \p hook mounted.
/// \p recorder (may be null) is cleared before every episode, as the
/// traced CLI run starts each episode on an empty recorder.
template <typename World>
void time_steps(const sim::ScenarioAdapter<World>& adapter,
                std::uint64_t seed, std::size_t count,
                std::vector<double>& out, sim::StepHook<World>* hook = nullptr,
                obs::Recorder* recorder = nullptr) {
  const std::size_t target = out.size() + count;
  for (std::size_t i = 0; out.size() < target; ++i) {
    if (recorder != nullptr) recorder->clear();
    sim::EpisodeRunner<World> runner(
        adapter, sim::episode_seed(seed, i, sim::SeedPolicy::kDerived), hook);
    Clock::time_point t0 = Clock::now();
    while (!runner.done() && out.size() < target) {
      runner.observe();
      runner.advance(runner.plan());
      const Clock::time_point t1 = Clock::now();
      out.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      t0 = t1;
    }
    (void)runner.finish();
  }
}

// --- campaign cells -------------------------------------------------------

/// run_campaign_cell's robustness posture for a cell's loop config.
void harden(sim::RunConfig& config, const sim::FaultCondition& cond) {
  config.comm = cond.comm;
  config.faults = cond.plan;
  config.gate = cvsafe::filter::GateConfig::hardened();
  config.ladder = cvsafe::core::LadderConfig{};
}

/// Builds the adapter run_campaign_cell builds for (\p scenario, \p cond)
/// and returns fn(adapter).
template <typename Fn>
auto with_cell_adapter(const std::string& scenario,
                       const sim::FaultCondition& cond, Fn&& fn) {
  if (scenario == "left-turn") {
    sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
    harden(config, cond);
    sim::AgentBlueprint bp;
    bp.name = "expert-compound";
    bp.scenario = config.make_scenario();
    bp.sensor = config.sensor;
    bp.config = sim::AgentConfig::ultimate_compound();
    bp.config.use_expert_planner = true;
    bp.config.gate = config.gate;
    bp.config.ladder = config.ladder;
    const sim::LeftTurnAdapter adapter(config, bp);
    return fn(adapter);
  }
  if (scenario == "lane-change") {
    sim::LaneChangeSimConfig config;
    harden(config, cond);
    const sim::LaneChangeAdapter adapter(config,
                                         sim::LaneChangePlannerConfig{});
    return fn(adapter);
  }
  if (scenario == "intersection") {
    sim::IntersectionSimConfig config;
    harden(config, cond);
    const sim::IntersectionAdapter adapter(config, /*use_compound=*/true);
    return fn(adapter);
  }
  if (scenario != "multi-vehicle") {
    throw std::invalid_argument("unknown campaign scenario " + scenario);
  }
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  harden(config, cond);
  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();
  const sim::MultiVehicleAdapter adapter(config, sim::MultiVehicleConfig{},
                                         setup);
  return fn(adapter);
}

/// The traced replica of run_campaign_cell's untraced (fleet) path.
std::vector<sim::RunResult> traced_cell(const std::string& scenario,
                                        const sim::FaultCondition& cond,
                                        std::size_t episodes,
                                        std::uint64_t seed, Tracer& tr) {
  return with_cell_adapter(scenario, cond, [&](const auto& adapter) {
    sim::FleetConfig fleet;
    fleet.threads = 1;
    fleet.policy = sim::SeedPolicy::kDerived;
    const std::vector<sim::FleetRecord> records =
        traced_fleet_records(adapter, episodes, seed, fleet, {}, {}, tr);
    return to_results(records);
  });
}

/// run_episode over a cell's first \p episodes seeds.
std::vector<sim::RunResult> scalar_cell(const std::string& scenario,
                                        const sim::FaultCondition& cond,
                                        std::size_t episodes,
                                        std::uint64_t seed) {
  return with_cell_adapter(scenario, cond, [&](const auto& adapter) {
    std::vector<sim::RunResult> results;
    for (std::size_t i = 0; i < episodes; ++i) {
      results.push_back(sim::run_episode(
          adapter, sim::episode_seed(seed, i, sim::SeedPolicy::kDerived)));
    }
    return results;
  });
}

std::uint64_t cell_seed(std::uint64_t base, std::size_t fault,
                        std::size_t scenario) {
  return cvsafe::util::derive_seed(cvsafe::util::derive_seed(base, fault),
                                   scenario);
}

std::uint64_t span_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Returns fn(); appends the seconds it took to \p part_s when set.
template <typename Fn>
auto timed_part(std::vector<double>* part_s, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  if (part_s != nullptr) {
    part_s->push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return result;
}

// --- lt-nn-nominal / lt-nn-faulted-recorded ------------------------------

/// Left turn, ultimate kappa_c around the conservative NN, through
/// run_left_turn_fleet_records. The faulted variant adds the
/// paper's delayed channel, the corruption FaultPlan, the hardened gate
/// and ladder, the armed flight recorder, the telemetry fold and dump
/// serialization; its oracle runs the `run --trace` recording path.
class LeftTurnFleet final : public Workload {
 public:
  LeftTurnFleet(bool faulted, std::uint64_t seed, const Sizes& sizes)
      : faulted_(faulted), seed_(seed), sizes_(sizes) {}

  void setup() override {
    config_ = sim::LeftTurnSimConfig::paper_defaults();
    if (faulted_) {
      config_.comm = cvsafe::comm::CommConfig::delayed(0.2, 0.25);
      config_.faults = *cvsafe::fault::FaultPlan::preset("corruption");
      config_.gate = cvsafe::filter::GateConfig::hardened();
      config_.ladder = cvsafe::core::LadderConfig{};
    } else {
      config_.comm = cvsafe::comm::CommConfig::no_disturbance();
    }
    blueprint_ = cvsafe::eval::make_nn_blueprint(
        config_, cvsafe::planners::PlannerStyle::kConservative,
        cvsafe::eval::PlannerVariant::kUltimate);
    blueprint_.config.gate = config_.gate;
    blueprint_.config.ladder = config_.ladder;
  }

  std::size_t episodes(std::size_t threads) const override {
    return threads > 1 ? sizes_.episodes_nt : sizes_.episodes_1t;
  }

  Output production(std::size_t threads,
                    std::vector<double>* part_s) override {
    sim::FleetConfig fleet;
    fleet.threads = threads;
    fleet.pool_capacity = kPoolCapacity;
    const std::size_t n = episodes(threads);
    Output out = timed_part(part_s, [&] {
      Output o;
      if (!faulted_) {
        o.records = sim::run_left_turn_fleet_records(config_, blueprint_, n,
                                                     seed_, fleet);
        return o;
      }
      obs::FlightDumpCollector dumps;
      sim::FleetObsSinks sinks;
      sinks.dumps = &dumps;
      o.records = sim::run_left_turn_fleet_records(config_, blueprint_, n,
                                                   seed_, fleet, sinks);
      obs::MetricsRegistry telemetry;
      sim::collect_fleet_telemetry(
          telemetry, std::span<const sim::FleetRecord>(o.records));
      write_dumps(dumps, o);
      return o;
    });
    out.counts = count_records(out.records);
    return out;
  }

  Output replica(Tracer& tr, LayerValues& layer) override {
    const sim::LeftTurnAdapter adapter(config_, blueprint_);
    sim::FleetConfig fleet;
    fleet.threads = 1;
    fleet.pool_capacity = kPoolCapacity;
    obs::FlightDumpCollector dumps;
    sim::FleetObsSinks sinks;
    if (faulted_) sinks.dumps = &dumps;
    Output out;
    out.records = traced_fleet_records(adapter, sizes_.episodes_1t, seed_,
                                       fleet, nn_factory(), sinks, tr);
    if (faulted_) {
      Clock::time_point t = Clock::now();
      obs::MetricsRegistry telemetry;
      sim::collect_fleet_telemetry(
          telemetry, std::span<const sim::FleetRecord>(out.records));
      t = tr.lap(kTelemetry, t);
      write_dumps(dumps, out);
      tr.lap(kDump, t);
    }
    out.counts = count_records(out.records);
    const Tally& tally = tr.tally();
    engine_layers(tally, out.counts, layer);
    const auto n = static_cast<double>(out.counts.episodes);
    layer["obs.telemetry_ns_per_episode"] =
        ratio(static_cast<double>(tally.ns[kTelemetry]), n);
    layer["obs.dump_ns_per_episode"] =
        ratio(static_cast<double>(tally.ns[kDump]), n);
    layer["obs.dump_bytes_per_episode"] =
        ratio(static_cast<double>(out.dump_bytes), n);
    layer["obs.triggered_frac"] = ratio(static_cast<double>(out.dumps), n);
    return out;
  }

  void oracle(std::size_t count, std::vector<double>& out) override {
    const sim::LeftTurnAdapter adapter(config_, blueprint_);
    const std::uint64_t seed = cvsafe::util::derive_seed(seed_, kOracleStream);
    if (!faulted_) {
      time_steps(adapter, seed, count, out);
      return;
    }
    obs::Recorder recorder;
    recorder.set_enabled(true);
    sim::RecordingHook<LeftTurnWorld> hook(&recorder);
    time_steps<LeftTurnWorld>(adapter, seed, count, out, &hook, &recorder);
  }

  std::string check_scalar(const Output& ref) override {
    const sim::LeftTurnAdapter adapter(config_, blueprint_);
    const std::size_t n = std::min(kScalarChecked, ref.records.size());
    for (std::size_t i = 0; i < n; ++i) {
      const sim::FleetRecord scalar = sim::record_from_result(
          sim::run_episode(adapter, sim::episode_seed(
                                        seed_, i, sim::SeedPolicy::kPaired)));
      if (!same_record(scalar, ref.records[i])) {
        return "episode " + std::to_string(i) + " differs from run_episode";
      }
    }
    return {};
  }

 private:
  /// Production's per-worker batch planner for a single-network
  /// blueprint: one NnPlanner, plan_batch over the pending worlds.
  sim::FleetPlannerFactory<LeftTurnWorld> nn_factory() const {
    std::shared_ptr<const cvsafe::nn::Mlp> net = blueprint_.net;
    return [net]() -> sim::FleetBatchPlanner<LeftTurnWorld> {
      auto planner = std::make_shared<cvsafe::planners::NnPlanner>(
          net, cvsafe::planners::InputEncoding{}, "nn");
      return [planner](std::span<const LeftTurnWorld> worlds,
                       std::span<double> plans) {
        planner->plan_batch(worlds, plans);
      };
    };
  }

  void write_dumps(obs::FlightDumpCollector& dumps, Output& out) const {
    DigestBuf buf;
    std::ostream os(&buf);
    out.dumps = obs::write_flight_dumps_jsonl(
        os, dumps.take_sorted(), "left-turn", config_.comm.label());
    out.dump_bytes = buf.bytes();
    out.dump_digest = buf.digest();
  }

  bool faulted_;
  std::uint64_t seed_;
  Sizes sizes_;
  sim::LeftTurnSimConfig config_;
  sim::AgentBlueprint blueprint_;
};

// --- campaign-expert-faulted ---------------------------------------------

/// The cells of run_fault_campaign over the CampaignConfig::ci() matrix (5
/// faults x 4 scenarios, expert kappa, hardened) at sizes.per_cell
/// episodes per cell.
class Campaign final : public Workload {
 public:
  Campaign(std::uint64_t seed, const Sizes& sizes)
      : seed_(seed), sizes_(sizes) {}

  void setup() override {
    config_ = sim::CampaignConfig::ci();
    config_.episodes_per_cell = sizes_.per_cell;
    config_.base_seed = seed_;
    config_.validate();
  }

  std::size_t episodes(std::size_t) const override {
    return config_.faults.size() * config_.scenarios.size() *
           config_.episodes_per_cell;
  }

  /// run_fault_campaign's loop, one timed run_campaign_cell call per cell
  /// (check_scalar checks it against run_fault_campaign itself).
  Output production(std::size_t threads,
                    std::vector<double>* part_s) override {
    sim::CampaignResult result;
    for (std::size_t fi = 0; fi < config_.faults.size(); ++fi) {
      const sim::FaultCondition cond =
          sim::FaultCondition::preset(config_.faults[fi]);
      for (std::size_t si = 0; si < config_.scenarios.size(); ++si) {
        const std::string& scenario = config_.scenarios[si];
        const std::vector<sim::RunResult> episodes = timed_part(part_s, [&] {
          return sim::run_campaign_cell(scenario, cond,
                                        config_.episodes_per_cell,
                                        cell_seed(config_.base_seed, fi, si),
                                        threads);
        });
        result.cells.push_back(
            sim::aggregate_cell(cond.label, scenario, episodes));
      }
    }
    return from_result(result);
  }

  Output replica(Tracer& tr, LayerValues& layer) override {
    const std::vector<std::string>& scenarios = config_.scenarios;
    std::vector<Tally> tallies(scenarios.size());
    std::vector<std::uint64_t> cell_ns(scenarios.size(), 0);
    std::vector<std::size_t> cell_episodes(scenarios.size(), 0);
    sim::CampaignResult result;
    for (std::size_t fi = 0; fi < config_.faults.size(); ++fi) {
      const sim::FaultCondition cond =
          sim::FaultCondition::preset(config_.faults[fi]);
      for (std::size_t si = 0; si < scenarios.size(); ++si) {
        const Clock::time_point t0 = Clock::now();
        const std::uint32_t span = tr.open(kCell, t0);
        const std::vector<sim::RunResult> episodes =
            traced_cell(scenarios[si], cond, config_.episodes_per_cell,
                        cell_seed(config_.base_seed, fi, si), tr);
        result.cells.push_back(
            sim::aggregate_cell(cond.label, scenarios[si], episodes));
        const Clock::time_point t1 = Clock::now();
        tr.close(span, t1);
        cell_ns[si] += span_ns(t0, t1);
        cell_episodes[si] += episodes.size();
        tallies[si] += tr.take_tally();
      }
    }
    Tally total;
    for (const Tally& t : tallies) total += t;
    Output out = from_result(result);
    engine_layers(total, out.counts, layer);
    for (std::size_t si = 0; si < scenarios.size(); ++si) {
      const std::string& s = scenarios[si];
      const Tally& t = tallies[si];
      layer["sim.cell_ns_per_episode." + s] =
          ratio(static_cast<double>(cell_ns[si]),
                static_cast<double>(cell_episodes[si]));
      layer["core.plan_ns_per_lane_step." + s] = per(t, kPlan, t.lane_steps());
      if (si > 0) {
        layer["sim.observe_ns_per_lane_step." + s] =
            per(t, kObserve, t.perlane_lane_steps);
      }
    }
    tr.tally() = total;  // the caller reads the whole rep's tally
    return out;
  }

  void oracle(std::size_t count, std::vector<double>& out) override {
    // Equal shares of the samples per cell, in campaign order.
    const std::size_t cells = config_.faults.size() * config_.scenarios.size();
    const std::size_t share = (count + cells - 1) / cells;
    const std::size_t target = out.size() + count;
    for (std::size_t fi = 0; fi < config_.faults.size(); ++fi) {
      const sim::FaultCondition cond =
          sim::FaultCondition::preset(config_.faults[fi]);
      for (std::size_t si = 0; si < config_.scenarios.size(); ++si) {
        const std::size_t want = std::min(share, target - out.size());
        if (want == 0) return;
        const std::uint64_t seed = cvsafe::util::derive_seed(
            cell_seed(config_.base_seed, fi, si), kOracleStream);
        with_cell_adapter(config_.scenarios[si], cond,
                          [&](const auto& adapter) {
                            time_steps(adapter, seed, want, out);
                            return 0;
                          });
      }
    }
  }

  std::string check_scalar(const Output& ref) override {
    sim::CampaignConfig whole = config_;
    whole.threads = 1;
    if (from_result(sim::run_fault_campaign(whole)).csv != ref.csv) {
      return "run_fault_campaign CSV differs from its cells'";
    }
    // The campaign exposes only cell aggregates, so the per-episode check
    // runs the production cell call on each cell's first episodes.
    const std::size_t cells = config_.faults.size() * config_.scenarios.size();
    const std::size_t k = std::min(config_.episodes_per_cell,
                                   (kScalarChecked + cells - 1) / cells);
    for (std::size_t fi = 0; fi < config_.faults.size(); ++fi) {
      const sim::FaultCondition cond =
          sim::FaultCondition::preset(config_.faults[fi]);
      for (std::size_t si = 0; si < config_.scenarios.size(); ++si) {
        const std::string& s = config_.scenarios[si];
        const std::uint64_t seed = cell_seed(config_.base_seed, fi, si);
        const std::vector<sim::RunResult> fleet =
            sim::run_campaign_cell(s, cond, k, seed, 1);
        const std::vector<sim::RunResult> scalar =
            scalar_cell(s, cond, k, seed);
        for (std::size_t i = 0; i < k; ++i) {
          if (!same_record(sim::record_from_result(fleet[i]),
                           sim::record_from_result(scalar[i]))) {
            return "cell " + cond.label + "/" + s + " episode " +
                   std::to_string(i) + " differs from run_episode";
          }
        }
      }
    }
    return {};
  }

 private:
  static Output from_result(const sim::CampaignResult& result) {
    Output out;
    out.csv = sim::campaign_csv(result);
    for (const sim::CampaignCell& cell : result.cells) {
      count_cell(out.counts, cell);
    }
    return out;
  }

  std::uint64_t seed_;
  Sizes sizes_;
  sim::CampaignConfig config_;
};

// --- attack-search ---------------------------------------------------------

/// sizes.searches independent adv::run_search calls in the
/// SearchConfig::ci() shape (CMA-ES, population 8, 8 iterations, 4
/// episodes per candidate), search k on seeds derived from (seed, k). Many
/// short searches rather than one long one: a long search drifts into a
/// seed-specific corner of the fault space whose episodes run up to 1.6x
/// longer or shorter, so its episodes/min would measure the seed.
class AttackSearch final : public Workload {
 public:
  AttackSearch(std::uint64_t seed, const Sizes& sizes)
      : seed_(seed), sizes_(sizes) {}

  void setup() override {
    configs_.clear();
    for (std::size_t k = 0; k < sizes_.searches; ++k) {
      adv::SearchConfig config = adv::SearchConfig::ci();
      config.search_seed = cvsafe::util::derive_seed(seed_, k);
      config.eval_seed = cvsafe::util::derive_seed(config.search_seed, 2026);
      config.validate();
      configs_.push_back(config);
    }
    population_ = adv::make_optimizer(configs_[0].optimizer,
                                      adv::ParamSpace::kDim,
                                      configs_[0].search_seed)
                      ->population();
  }

  std::size_t episodes(std::size_t) const override {
    std::size_t n = 0;
    for (const adv::SearchConfig& c : configs_) {
      n += c.iterations * population_ * c.episodes_per_eval;
    }
    return n;
  }

  Output production(std::size_t threads,
                    std::vector<double>* part_s) override {
    last_.clear();
    Output out;
    for (adv::SearchConfig config : configs_) {
      config.threads = threads;
      last_.push_back(
          timed_part(part_s, [&] { return adv::run_search(config); }));
      append(out, last_.back());
    }
    return out;
  }

  Output replica(Tracer& tr, LayerValues& layer) override {
    std::uint64_t cell_ns = 0;
    std::size_t iterations = 0;
    std::size_t candidates = 0;
    std::size_t admissible = 0;
    Output out;
    for (const adv::SearchConfig& config : configs_) {
      const adv::SearchResult result = traced_search(config, tr, cell_ns);
      append(out, result);
      iterations += config.iterations;
      for (const adv::CandidateRecord& rec : result.trace.candidates) {
        ++candidates;
        if (rec.admissible) ++admissible;
      }
    }
    const Tally& tally = tr.tally();
    engine_layers(tally, out.counts, layer);
    const auto n = static_cast<double>(candidates);
    layer["adv.ask_tell_us_per_iter"] =
        ratio(static_cast<double>(tally.ns[kAskTell]) / 1e3,
              static_cast<double>(iterations));
    layer["adv.decode_us_per_candidate"] =
        ratio(static_cast<double>(tally.ns[kDecode]) / 1e3, n);
    layer["sim.cell_us_per_candidate"] =
        ratio(static_cast<double>(cell_ns) / 1e3, n);
    layer["adv.admissible_frac"] = ratio(static_cast<double>(admissible), n);
    layer["core.plan_ns_per_lane_step." + configs_[0].scenario] =
        per(tally, kPlan, tally.lane_steps());
    return out;
  }

  void oracle(std::size_t count, std::vector<double>& out) override {
    // The first search's first-iteration candidate plans, round robin, on
    // that search's evaluation seeds.
    if (last_.empty()) throw std::logic_error("oracle before a production rep");
    const adv::SearchConfig& config = configs_[0];
    const auto& candidates = last_[0].trace.candidates;
    const std::size_t pop = std::min(population_, candidates.size());
    const std::size_t target = out.size() + count;
    const std::size_t share = (count + pop - 1) / pop;
    const std::uint64_t seed =
        cvsafe::util::derive_seed(config.eval_seed, kOracleStream);
    for (std::size_t c = 0; c < pop && out.size() < target; ++c) {
      const sim::FaultCondition cond{"adv", candidates[c].plan, config.comm};
      const std::size_t want = std::min(share, target - out.size());
      with_cell_adapter(config.scenario, cond, [&](const auto& adapter) {
        time_steps(adapter, seed, want, out);
        return 0;
      });
    }
  }

  std::string check_scalar(const Output&) override {
    // Candidate cells rebuilt from run_episode over the first search's
    // first candidates must equal that search's cell aggregates.
    const adv::SearchConfig& config = configs_[0];
    const auto& candidates = last_.at(0).trace.candidates;
    const std::size_t n = std::min(
        candidates.size(),
        (kScalarChecked + config.episodes_per_eval - 1) /
            config.episodes_per_eval);
    for (std::size_t c = 0; c < n; ++c) {
      const sim::FaultCondition cond{"adv", candidates[c].plan, config.comm};
      const std::vector<sim::RunResult> scalar = scalar_cell(
          config.scenario, cond, config.episodes_per_eval, config.eval_seed);
      if (!same_cell(sim::aggregate_cell("adv", config.scenario, scalar),
                     candidates[c].cell)) {
        return "candidate " + std::to_string(c) + " differs from run_episode";
      }
    }
    return {};
  }

 private:
  /// The traced replica of run_search(config): ask, then per candidate
  /// decode -> cell -> screen -> score, then tell. \p cell_ns accumulates
  /// the candidate cells' time.
  static adv::SearchResult traced_search(const adv::SearchConfig& config,
                                         Tracer& tr, std::uint64_t& cell_ns) {
    constexpr double kStealthPenalty = 1e3;  // search.cpp's screen score
    const adv::ParamSpace space(config.stealth_threshold);
    Clock::time_point t = Clock::now();
    const auto opt = adv::make_optimizer(config.optimizer,
                                         adv::ParamSpace::kDim,
                                         config.search_seed);
    const std::size_t pop = opt->population();
    adv::SearchResult result;
    result.config = config;
    std::vector<double> xs(pop * adv::ParamSpace::kDim);
    std::vector<double> scores(pop);
    t = tr.lap(kAskTell, t);
    for (std::size_t it = 0; it < config.iterations; ++it) {
      opt->ask(it, xs);
      t = tr.lap(kAskTell, t);
      for (std::size_t c = 0; c < pop; ++c) {
        const std::span<const double> x(&xs[c * adv::ParamSpace::kDim],
                                        adv::ParamSpace::kDim);
        adv::CandidateRecord rec;
        rec.iteration = it;
        rec.index = c;
        rec.params.assign(x.begin(), x.end());
        rec.plan = space.decode(x);
        t = tr.lap(kDecode, t);
        const std::uint32_t span = tr.open(kCell, t);
        const sim::FaultCondition cond{"adv", rec.plan, config.comm};
        const std::vector<sim::RunResult> episodes =
            traced_cell(config.scenario, cond, config.episodes_per_eval,
                        config.eval_seed, tr);
        rec.cell = sim::aggregate_cell("adv", config.scenario, episodes);
        const Clock::time_point t1 = Clock::now();
        tr.close(span, t1);
        cell_ns += span_ns(t, t1);
        t = t1;
        rec.admissible = space.admits(rec.cell);
        t = tr.lap(kDecode, t);
        rec.score = rec.admissible
                        ? rec.cell.min_eta
                        : kStealthPenalty + rec.cell.rejection_rate();
        scores[c] = rec.score;
        result.trace.candidates.push_back(std::move(rec));
      }
      opt->tell(it, xs, scores);
      t = tr.lap(kAskTell, t);
    }
    return result;
  }

  static void append(Output& out, const adv::SearchResult& result) {
    out.csv += adv::search_csv(result);
    for (const adv::CandidateRecord& rec : result.trace.candidates) {
      count_cell(out.counts, rec.cell);
    }
  }

  std::uint64_t seed_;
  Sizes sizes_;
  std::vector<adv::SearchConfig> configs_;
  std::size_t population_ = 0;
  std::vector<adv::SearchResult> last_;
};

Sizes sizes_for(const std::string& name, bool quick) {
  Sizes s;
  if (name == "lt-nn-nominal" || name == "lt-nn-faulted-recorded") {
    s.episodes_1t = 500;
    s.episodes_nt = 2000;
  } else if (name == "campaign-expert-faulted") {
    s.per_cell = 100;
  } else {
    s.searches = 12;
  }
  if (quick) {
    s.episodes_1t /= 10;
    s.episodes_nt /= 10;
    s.per_cell /= 10;
    s.searches /= 10;
  }
  return s;
}

}  // namespace

std::string compare_outputs(const Output& want, const Output& got,
                            bool prefix) {
  if (want.csv != got.csv) return "CSV differs";
  if (!prefix && want.records.size() != got.records.size()) {
    return "record count differs";
  }
  const std::size_t n = std::min(want.records.size(), got.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_record(want.records[i], got.records[i])) {
      return "record " + std::to_string(i) + " differs";
    }
  }
  if (prefix) return {};
  if (want.dumps != got.dumps || want.dump_bytes != got.dump_bytes ||
      want.dump_digest != got.dump_digest) {
    return "flight-dump JSONL differs";
  }
  return {};
}

const std::vector<std::string>& campaign_scenarios() {
  static const std::vector<std::string> kScenarios =
      sim::CampaignConfig::ci().scenarios;
  return kScenarios;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick) {
  const Sizes sizes = sizes_for(name, quick);
  if (name == "lt-nn-nominal") {
    return std::make_unique<LeftTurnFleet>(false, seed, sizes);
  }
  if (name == "lt-nn-faulted-recorded") {
    return std::make_unique<LeftTurnFleet>(true, seed, sizes);
  }
  if (name == "campaign-expert-faulted") {
    return std::make_unique<Campaign>(seed, sizes);
  }
  if (name == "attack-search") {
    return std::make_unique<AttackSearch>(seed, sizes);
  }
  return nullptr;
}

}  // namespace cvsafe_e2e
