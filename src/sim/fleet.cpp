#include "cvsafe/sim/fleet.hpp"

#include <string>

#include "cvsafe/obs/event.hpp"
#include "cvsafe/sim/obs_summary.hpp"

namespace cvsafe::sim {

const char* SweepSpans::kind_name(std::size_t kind) {
  switch (kind) {
    case kObserve:
      return "observe";
    case kPlan:
      return "plan";
    case kInfer:
      return "infer";
    case kAdvance:
      return "advance";
    default:
      return "unknown";
  }
}

RunResult record_to_result(const FleetRecord& record) {
  RunResult result;
  result.collided = record.collided;
  result.reached = record.reached;
  result.reach_time = record.reach_time;
  result.eta = record.eta;
  result.steps = record.steps;
  result.emergency_steps = record.emergency_steps;
  result.ladder_steps = record.ladder_steps;
  result.ladder_transitions = record.ladder_transitions;
  result.messages_accepted = record.messages_accepted;
  result.messages_rejected = record.messages_rejected;
  result.rejection_reasons = record.rejection_reasons;
  return result;
}

FleetRecord record_from_result(const RunResult& result) {
  FleetRecord record;
  record.eta = result.eta;
  record.reach_time = result.reach_time;
  record.steps = result.steps;
  record.emergency_steps = result.emergency_steps;
  record.ladder_steps = result.ladder_steps;
  record.ladder_transitions = result.ladder_transitions;
  record.messages_accepted = result.messages_accepted;
  record.messages_rejected = result.messages_rejected;
  record.rejection_reasons = result.rejection_reasons;
  record.collided = result.collided;
  record.reached = result.reached;
  return record;
}

BatchStats stats_from_records(std::span<const FleetRecord> records) {
  // Mirrors BatchStats::from_results accumulation term for term (same
  // order, same arithmetic) so the fleet aggregate is bit-identical to
  // from_results over the seed-ordered RunResults.
  BatchStats stats;
  stats.n = records.size();
  stats.etas.reserve(records.size());
  double reach_time_sum = 0.0;
  double eta_sum = 0.0;
  for (const FleetRecord& r : records) {
    stats.etas.push_back(r.eta);
    eta_sum += r.eta;
    if (!r.collided) ++stats.safe_count;
    if (r.reached) {
      ++stats.reached_count;
      reach_time_sum += r.reach_time;
    }
    stats.total_steps += r.steps;
    stats.emergency_steps += r.emergency_steps;
  }
  if (stats.n > 0) {
    stats.mean_eta = eta_sum / static_cast<double>(stats.n);
  }
  stats.mean_reach_time =
      stats.reached_count > 0
          ? reach_time_sum / static_cast<double>(stats.reached_count)
          : 0.0;
  return stats;
}

void collect_record_metrics(obs::MetricsRegistry& registry,
                            std::span<const FleetRecord> records) {
  for (const FleetRecord& r : records) {
    const RunResult result = record_to_result(r);
    collect_run_metrics(registry, result);
  }
}

void collect_fleet_telemetry(obs::MetricsRegistry& registry,
                             std::span<const FleetRecord> records) {
  // Bucket layouts are fixed at the fold (never data-dependent) so two
  // runs of the same cell produce byte-identical exports.
  obs::Histogram& eta = registry.histogram(
      "cvsafe_fleet_eta",
      {-1.0, -0.5, -0.1, 0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0});
  obs::Histogram& residency = registry.histogram(
      "cvsafe_fleet_episode_steps",
      {32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0});
  for (const FleetRecord& r : records) {
    eta.observe(r.eta);
    residency.observe(static_cast<double>(r.steps));
    registry.counter("cvsafe_fleet_episodes_total").inc();
    registry.counter("cvsafe_fleet_messages_accepted_total")
        .inc(r.messages_accepted);
    for (std::size_t reason = 0; reason < r.rejection_reasons.size();
         ++reason) {
      if (r.rejection_reasons[reason] == 0) continue;
      registry
          .counter(std::string("cvsafe_fleet_rejections_total{reason=\"") +
                   obs::to_string(
                       static_cast<obs::GateRejectReason>(reason)) +
                   "\"}")
          .inc(r.rejection_reasons[reason]);
    }
    for (std::size_t level = 0; level < r.ladder_steps.size(); ++level) {
      if (r.ladder_steps[level] == 0) continue;
      registry
          .counter(std::string("cvsafe_fleet_ladder_steps_total{level=\"") +
                   core::to_string(
                       static_cast<core::DegradationLevel>(level)) +
                   "\"}")
          .inc(r.ladder_steps[level]);
    }
  }
}

void collect_fleet_telemetry(obs::MetricsRegistry& registry,
                             std::span<const RunResult> results) {
  std::vector<FleetRecord> records;
  records.reserve(results.size());
  for (const RunResult& r : results) records.push_back(record_from_result(r));
  collect_fleet_telemetry(registry, records);
}

void collect_sweep_spans(obs::MetricsRegistry& registry,
                         const SweepSpans& spans) {
  for (std::size_t k = 0; k < SweepSpans::kNumKinds; ++k) {
    const SweepSpans::Span& span = spans.spans[k];
    const std::string label =
        std::string("{sweep=\"") + SweepSpans::kind_name(k) + "\"}";
    registry.counter("cvsafe_sweep_steps_total" + label).inc(span.count);
    registry.counter("cvsafe_sweep_ns_total" + label).inc(span.ns);
  }
}

}  // namespace cvsafe::sim
