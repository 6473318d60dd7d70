#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/sim/engine.hpp"

/// \file trace.hpp
/// Traced episodes: an obs::Recorder mounted into the closed-loop engine.
///
/// RecordingHook is the StepHook that hands its recorder to the
/// EpisodeRunner (which wires it through the episode's control stack and
/// stamps every step) and adds one `step` event per control step: the
/// applied accel, whether kappa_e drove it, the ladder level.
/// trace_episode appends the `episode_end` event.
///
/// Determinism across thread counts follows the campaign-CSV discipline:
/// each episode owns a private Recorder, and run_traced_episodes writes
/// the episodes in seed order through write_flight_dumps_jsonl after the
/// parallel region — so the JSONL bytes are a pure function of (adapter,
/// seeds), never of scheduling.

namespace cvsafe::sim {

/// StepHook mounting \p recorder into the engine.
template <typename World>
class RecordingHook final : public StepHook<World> {
 public:
  explicit RecordingHook(obs::Recorder* recorder) : recorder_(recorder) {}

  obs::Recorder* recorder() const override { return recorder_; }

  void on_step(std::size_t step, double t, const World& world,
               const vehicle::VehicleState& ego, double a0, bool emergency,
               const Episode<World>& episode) override {
    (void)step, (void)t, (void)world, (void)ego;
    if (!obs::recording(recorder_)) return;
    int level = -1;
    if (const auto* compound = episode.compound();
        compound != nullptr && compound->has_ladder()) {
      level = static_cast<int>(compound->ladder_level());
    }
    recorder_->step(a0, emergency, level);
  }

 private:
  obs::Recorder* recorder_;
};

/// run_episode of episode \p episode (seed \p seed) with a fresh
/// growable recorder mounted: its result plus its dump, every event in
/// causal order, closed by the episode_end event.
template <typename World>
std::pair<RunResult, obs::FlightDump> trace_episode(
    const ScenarioAdapter<World>& adapter, std::size_t episode,
    std::uint64_t seed) {
  obs::Recorder recorder;
  recorder.set_enabled(true);
  RecordingHook<World> hook(&recorder);
  RunResult result = run_episode(adapter, seed, &hook);
  recorder.episode_end(result.collided, result.reached, result.eta,
                       result.steps);
  obs::FlightDump dump = obs::flight_dump(recorder, episode, seed,
                                          result.eta, result.collided);
  return {std::move(result), std::move(dump)};
}

/// run_episodes with one recorder per episode, written to \p os as JSONL
/// in seed order after the parallel region — byte-identical across runs
/// and thread counts. \p scenario_label defaults to the adapter's name;
/// \p fault_label annotates campaign cells (empty = omitted).
template <typename World>
std::vector<RunResult> run_traced_episodes(
    const ScenarioAdapter<World>& adapter, std::size_t n,
    std::uint64_t base_seed, std::size_t threads, SeedPolicy policy,
    std::ostream& os, std::string scenario_label = {},
    std::string fault_label = {}) {
  CVSAFE_EXPECTS(n > 0, "batch must contain at least one episode");
  std::vector<RunResult> results(n);
  std::vector<obs::FlightDump> dumps(n);
  util::parallel_for(
      n,
      [&](std::size_t i) {
        std::tie(results[i], dumps[i]) =
            trace_episode(adapter, i, episode_seed(base_seed, i, policy));
      },
      threads);
  if (scenario_label.empty()) scenario_label = std::string(adapter.name());
  obs::write_flight_dumps_jsonl(os, std::move(dumps), scenario_label,
                                fault_label);
  return results;
}

}  // namespace cvsafe::sim
