#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cvsafe/sim/fleet.hpp"
#include "replica.hpp"

/// \file workloads.hpp
/// The benchmark's four workloads. Each one owns its generated inputs
/// (derived from the workload seed only), the production calls the
/// end-to-end numbers time, the traced replica of those calls, and the
/// scalar-oracle step it samples for the control-step latency.

namespace cvsafe_e2e {

/// Per-rep sizes; --quick runs 1/10 of each.
struct Sizes {
  std::size_t episodes_1t = 0;   ///< left turn: episodes per 1t rep
  std::size_t episodes_nt = 0;   ///< left turn: episodes per nt rep
  std::size_t per_cell = 0;      ///< campaign: episodes per cell
  std::size_t searches = 0;      ///< attack: searches per rep
};

/// Exact counts folded from a rep's per-episode outcomes.
struct Counts {
  std::size_t episodes = 0;
  std::size_t unsafe = 0;  ///< episodes that entered X_u (eta < 0)
  std::size_t steps = 0;
  std::size_t emergency_steps = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Everything a rep produces that another rep of the same input must
/// reproduce exactly: at another thread count, or through the replica.
struct Output {
  std::vector<cvsafe::sim::FleetRecord> records;  ///< left-turn fleets
  std::string csv;                                ///< campaign / search CSV
  std::size_t dumps = 0;                          ///< flight dumps written
  std::size_t dump_bytes = 0;
  std::uint64_t dump_digest = 0;
  Counts counts;
};

/// Compares \p got against \p want. Records must match field for field
/// (doubles bit for bit); when \p prefix is set, \p got may hold more
/// episodes (a larger rep of the same seeds) and only the shared prefix
/// and the CSV are compared. Returns an empty string on a match, else
/// what differs.
std::string compare_outputs(const Output& want, const Output& got,
                            bool prefix);

/// Per-layer values of one traced rep, by metric name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds configs, adapters and (left turn) trains kappa_n through the
  /// model cache. Everything a user pays before the first episode.
  virtual void setup() = 0;

  /// One untraced production rep at \p threads worker threads; \p threads
  /// > 1 runs the nt size. A rep is a fixed sequence of independent
  /// production calls (one fleet call, one call per campaign cell, one per
  /// search); when \p part_s is set, the seconds of each call are appended
  /// to it in that order.
  virtual Output production(std::size_t threads,
                            std::vector<double>* part_s = nullptr) = 0;

  /// One traced replica rep of production(1): spans and tallies land in
  /// \p tr, workload-specific per-layer values in \p layer.
  virtual Output replica(Tracer& tr, LayerValues& layer) = 0;

  /// Appends \p count control-step latencies (ns) of the scalar oracle,
  /// one EpisodeRunner observe -> plan -> advance step each.
  virtual void oracle(std::size_t count, std::vector<double>& out) = 0;

  /// Checks the first 256 episodes of \p ref (a production(1) output)
  /// against run_episode. Returns an empty string on a match.
  virtual std::string check_scalar(const Output& ref) = 0;

  virtual std::size_t episodes(std::size_t threads) const = 0;
};

/// Builds workload \p name on \p seed; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick);

/// The scenario axis of the campaign, in CampaignConfig::ci() order; the
/// per-lane (reference-loop) scenarios are all but the first.
const std::vector<std::string>& campaign_scenarios();

}  // namespace cvsafe_e2e
