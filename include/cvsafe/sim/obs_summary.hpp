#pragma once

#include <string>

#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/sim/fault_campaign.hpp"
#include "cvsafe/sim/run_result.hpp"

/// \file obs_summary.hpp
/// Bridges the engine's result types into the obs metrics registry and
/// renders the human-readable run summary lines the CLI prints.
///
/// The bridge is the per-shard accumulation story: every RunResult folds
/// into a registry with collect_run_metrics (declared next to RunResult,
/// so the fleet engine's header sees it), shard registries merge with
/// MetricsRegistry::merge, and because both the fold and the merge are
/// name-ordered and order-insensitive over seed-ordered results, the
/// exported text is deterministic regardless of thread count.

namespace cvsafe::sim {

/// Folds a finished campaign into \p reg: the global counters plus
/// per-cell labeled counters (fault/scenario label pairs).
void collect_campaign_metrics(obs::MetricsRegistry& reg,
                              const CampaignResult& campaign);

/// The degradation-occupancy and message-tally summary lines of the CLI
/// `run` command (newline-terminated; empty string when the result
/// carries neither ladder steps nor message traffic).
std::string run_summary_text(const RunResult& result);

}  // namespace cvsafe::sim
