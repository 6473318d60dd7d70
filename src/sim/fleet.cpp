#include "cvsafe/sim/fleet.hpp"

#include <string>

#include "cvsafe/obs/event.hpp"

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

void collect_fleet_telemetry(obs::MetricsRegistry& registry,
                             std::span<const RunResult> results) {
  // Bucket layouts are fixed at the fold (never data-dependent) so two
  // runs of the same cell produce byte-identical exports.
  obs::Histogram& eta = registry.histogram(
      "cvsafe_fleet_eta",
      {-1.0, -0.5, -0.1, 0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0});
  obs::Histogram& residency = registry.histogram(
      "cvsafe_fleet_episode_steps",
      {32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0});
  for (const RunResult& r : results) {
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
