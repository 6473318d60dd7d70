#include "cvsafe/adv/search.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>

#include "cvsafe/adv/optimizer.hpp"
#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/csv.hpp"

namespace cvsafe::adv {
namespace {

/// Score assigned to screened-out (too loud) candidates: far above any
/// admissible safety margin, graded by how loud, so the optimizer is
/// steered back toward the stealth envelope rather than seeing a flat
/// cliff.
constexpr double kStealthPenalty = 1e3;

}  // namespace

void SearchConfig::validate() const {
  CVSAFE_EXPECTS(sim::known_scenario(scenario), "unknown search scenario");
  CVSAFE_EXPECTS(optimizer == "cma" || optimizer == "coord",
                 "unknown optimizer name");
  CVSAFE_EXPECTS(iterations >= 1, "search needs at least one iteration");
  CVSAFE_EXPECTS(episodes_per_eval >= 1,
                 "search needs at least one episode per candidate");
  CVSAFE_EXPECTS(top_k >= 1, "search must report at least one offender");
  CVSAFE_EXPECTS(stealth_threshold >= 0.0 && stealth_threshold <= 1.0,
                 "stealth threshold must lie in [0,1]");
}

SearchConfig SearchConfig::ci() {
  SearchConfig c;
  c.scenario = "left-turn";
  c.optimizer = "cma";
  c.iterations = 8;
  c.episodes_per_eval = 4;
  c.search_seed = 7;
  c.eval_seed = 2026;
  c.top_k = 3;
  return c;
}

SearchConfig SearchConfig::smoke() {
  SearchConfig c;
  c.scenario = "left-turn";
  c.optimizer = "coord";
  c.iterations = 2;
  c.episodes_per_eval = 2;
  c.search_seed = 7;
  c.eval_seed = 2026;
  c.top_k = 1;
  return c;
}

const CandidateRecord* SearchResult::worst() const {
  return offenders.empty() ? nullptr
                           : &trace.candidates[offenders.front()];
}

bool SearchResult::invariant_ok() const {
  return std::all_of(
      trace.candidates.begin(), trace.candidates.end(),
      [](const CandidateRecord& c) { return c.cell.invariant_ok(); });
}

std::size_t SearchResult::violations() const {
  std::size_t total = 0;
  for (const CandidateRecord& c : trace.candidates) {
    total += c.cell.collisions;
  }
  return total;
}

SearchResult run_search(const SearchConfig& config) {
  config.validate();
  const ParamSpace space(config.stealth_threshold);
  const auto opt =
      make_optimizer(config.optimizer, ParamSpace::kDim, config.search_seed);
  const std::size_t pop = opt->population();

  SearchResult result;
  result.config = config;
  result.trace.candidates.reserve(config.iterations * pop);
  std::vector<double> xs(pop * ParamSpace::kDim);
  std::vector<double> scores(pop);
  for (std::size_t it = 0; it < config.iterations; ++it) {
    opt->ask(it, xs);
    for (std::size_t c = 0; c < pop; ++c) {
      const std::span<const double> x(&xs[c * ParamSpace::kDim],
                                      ParamSpace::kDim);
      CandidateRecord rec;
      rec.iteration = it;
      rec.index = c;
      rec.params.assign(x.begin(), x.end());
      rec.plan = space.decode(x);
      const sim::FaultCondition cond{"adv", rec.plan, config.comm};
      const auto episodes = sim::run_campaign_cell(
          config.scenario, cond, config.episodes_per_eval, config.eval_seed,
          config.threads);
      rec.cell = aggregate_cell("adv", config.scenario, episodes);
      rec.admissible = space.admits(rec.cell);
      rec.score = rec.admissible
                      ? rec.cell.min_eta
                      : kStealthPenalty + rec.cell.rejection_rate();
      scores[c] = rec.score;
      result.trace.candidates.push_back(std::move(rec));
    }
    opt->tell(it, xs, scores);
  }

  // Offender ranking: admissible candidates by ascending margin, ties in
  // schedule order (stable), truncated to top_k.
  for (std::size_t i = 0; i < result.trace.candidates.size(); ++i) {
    if (result.trace.candidates[i].admissible) result.offenders.push_back(i);
  }
  std::stable_sort(result.offenders.begin(), result.offenders.end(),
                   [&](std::size_t a, std::size_t b) {
                     return result.trace.candidates[a].cell.min_eta <
                            result.trace.candidates[b].cell.min_eta;
                   });
  if (result.offenders.size() > config.top_k) {
    result.offenders.resize(config.top_k);
  }
  return result;
}

void write_search_csv(std::ostream& os, const SearchResult& result) {
  os << "iteration,candidate,admissible,score,min_eta,mean_eta,collisions,"
        "reached,episodes,steps,emergency_steps,ladder_full,"
        "ladder_reach_only,ladder_sensor_only,ladder_emergency_biased,"
        "ladder_transitions,messages_accepted,messages_rejected,"
        "reject_rate";
  for (const ParamSpace::Bound& b : ParamSpace::bounds()) {
    os << ",p_" << b.name;
  }
  os << '\n';
  for (const CandidateRecord& r : result.trace.candidates) {
    const sim::CampaignCell& c = r.cell;
    os << r.iteration << ',' << r.index << ',' << (r.admissible ? 1 : 0)
       << ',' << util::format_exact(r.score) << ','
       << util::format_exact(c.min_eta) << ','
       << util::format_exact(c.mean_eta);
    os << ',' << c.collisions << ',' << c.reached << ',' << c.episodes
       << ',' << c.steps << ',' << c.emergency_steps;
    for (const std::size_t n : c.ladder_steps) os << ',' << n;
    os << ',' << c.ladder_transitions << ',' << c.messages_accepted << ','
       << c.messages_rejected << ',' << util::format_exact(c.rejection_rate());
    for (const double p : r.params) os << ',' << util::format_exact(p);
    os << '\n';
  }
}

std::string search_csv(const SearchResult& result) {
  std::ostringstream os;
  write_search_csv(os, result);
  return os.str();
}

void trace_offender(const SearchResult& result, std::size_t rank,
                    std::ostream& os) {
  CVSAFE_EXPECTS(rank < result.offenders.size(),
                 "offender rank out of range");
  const CandidateRecord& rec = result.trace.candidates[result.offenders[rank]];
  const sim::FaultCondition cond{"adv-" + std::to_string(rank), rec.plan,
                                 result.config.comm};
  sim::run_campaign_cell(result.config.scenario, cond,
                         result.config.episodes_per_eval,
                         result.config.eval_seed, result.config.threads, &os);
}

void collect_search_metrics(obs::MetricsRegistry& registry,
                            const SearchResult& result) {
  // Always materialize the totals so the export shape is stable even for
  // an all-screened (or collision-free) search.
  obs::Counter& candidates =
      registry.counter("cvsafe_attack_candidates_total");
  obs::Counter& screened =
      registry.counter("cvsafe_attack_stealth_rejected_total");
  obs::Counter& collisions =
      registry.counter("cvsafe_attack_collisions_total");
  bool have_best = false;
  double best = 0.0;
  std::size_t iteration = 0;
  const auto flush = [&](std::size_t it) {
    if (!have_best) return;
    registry
        .gauge("cvsafe_attack_best_eta{iteration=\"" + std::to_string(it) +
               "\"}")
        .set(best);
  };
  // Candidates are schedule-ordered (iteration-major), so one pass folds
  // the running best and flushes a gauge at every iteration boundary.
  for (const CandidateRecord& c : result.trace.candidates) {
    if (c.iteration != iteration) {
      flush(iteration);
      iteration = c.iteration;
    }
    candidates.inc();
    if (!c.admissible) screened.inc();
    collisions.inc(c.cell.collisions);
    if (c.admissible && (!have_best || c.cell.min_eta < best)) {
      have_best = true;
      best = c.cell.min_eta;
    }
  }
  if (!result.trace.candidates.empty()) flush(iteration);
  if (have_best) registry.gauge("cvsafe_attack_best_eta").set(best);
}

std::size_t dump_offender_flights(const SearchResult& result,
                                  std::size_t rank, std::ostream& os,
                                  const obs::FlightRecorderConfig& flight) {
  CVSAFE_EXPECTS(rank < result.offenders.size(),
                 "offender rank out of range");
  const CandidateRecord& rec = result.trace.candidates[result.offenders[rank]];
  const std::string label = "adv-" + std::to_string(rank);
  const sim::FaultCondition cond{label, rec.plan, result.config.comm};
  obs::FlightDumpCollector dumps;
  sim::FleetObsSinks sinks;
  sinks.dumps = &dumps;
  sinks.flight = flight;
  sim::run_campaign_cell(result.config.scenario, cond,
                         result.config.episodes_per_eval,
                         result.config.eval_seed, result.config.threads,
                         /*trace=*/nullptr, sinks);
  return obs::write_flight_dumps_jsonl(os, dumps.take_sorted(),
                                       result.config.scenario, label);
}

}  // namespace cvsafe::adv
