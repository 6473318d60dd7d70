#pragma once

// Shared infrastructure for the experiment binaries in bench/.
//
// Every binary reads its workload size from the environment:
//   CVSAFE_SIMS     simulations per table cell / sweep point
//   CVSAFE_THREADS  worker threads (0 = hardware concurrency)
// so the paper-scale runs (80,000 sims/setting) are one env var away.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cvsafe/eval/experiments.hpp"

namespace bench {

/// Simulations per experiment cell (env CVSAFE_SIMS, else \p fallback).
std::size_t sims_per_cell(std::size_t fallback);

/// Worker threads (env CVSAFE_THREADS, else hardware).
std::size_t threads();

/// Runs one full table of the paper (Table I for the conservative style,
/// Table II for the aggressive style): three communication settings x
/// {pure NN, basic, ultimate}, reporting reaching time, safe rate, eta,
/// winning percentage (ultimate vs row) and emergency frequency.
void run_planner_table(cvsafe::planners::PlannerStyle style,
                       const std::string& title, std::size_t sims_per_cell);

/// Runs one Fig. 5 sweep for the conservative planner family
/// (pure / basic / ultimate): for each x the configuration is built by
/// \p make_config, every variant runs \p sims seed-paired episodes, and
/// two tables are printed — reaching time vs x (Figs. 5a/5c/5e) and
/// emergency frequency vs x (Figs. 5b/5d/5f) — plus a CSV with the raw
/// series at \p csv_path.
void run_fig5_sweep(const std::string& title, const std::string& x_label,
                    const std::vector<double>& xs,
                    const std::function<cvsafe::sim::LeftTurnSimConfig(double)>&
                        make_config,
                    std::size_t sims, const std::string& csv_path);

}  // namespace bench
