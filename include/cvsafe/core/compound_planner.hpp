#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cvsafe/core/degradation.hpp"
#include "cvsafe/core/planner.hpp"
#include "cvsafe/core/safety_model.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/util/contracts.hpp"

/// \file compound_planner.hpp
/// The compound planner kappa_c of Section III (Fig. 2): a runtime monitor
/// that delegates to the embedded NN-based planner kappa_n while safe, and
/// switches to the emergency planner kappa_e exactly when the current state
/// lies in the boundary safe set X_b.
///
/// Safety argument (Section III-E): any trajectory entering X_u must pass
/// through X_b one control step earlier; the monitor hands control to
/// kappa_e there, and Eq. 4 guarantees kappa_e keeps the state in the safe
/// set — hence the ego vehicle never enters X_u and eta(kappa_c) >= 0.

namespace cvsafe::core {

/// Configuration of the compound planner.
struct CompoundOptions {
  /// Feed the NN-based planner the aggressive (underestimated) unsafe set
  /// via SafetyModelBase::shrink_for_planner. Off = basic compound
  /// planner, on = ultimate compound planner (together with the
  /// information filter chosen upstream).
  bool aggressive_unsafe_set = false;
};

/// Per-run statistics of the monitor's decisions.
struct MonitorStats {
  std::size_t total_steps = 0;      ///< plan() invocations
  std::size_t emergency_steps = 0;  ///< steps controlled by kappa_e

  /// Fraction of steps controlled by kappa_e ("emergency frequency"
  /// column of Tables I and II).
  double emergency_frequency() const {
    return total_steps == 0
               ? 0.0
               : static_cast<double>(emergency_steps) /
                     static_cast<double>(total_steps);
  }
};

/// One planner hand-over recorded by the monitor.
struct SwitchEvent {
  std::size_t step = 0;       ///< plan() invocation index (0-based)
  bool to_emergency = false;  ///< true: kappa_n -> kappa_e; false: back
  /// Boundary classification (entering only): a view of the safety
  /// model's static text, so recording a switch allocates nothing.
  std::string_view reason;
};

/// The compound planner kappa_c embedding an arbitrary planner kappa_n.
template <typename World>
class CompoundPlanner final : public PlannerBase<World> {
 public:
  /// \param nn_planner    the embedded (typically NN-based) planner
  /// \param safety_model  scenario safety knowledge (monitor + kappa_e)
  CompoundPlanner(std::shared_ptr<PlannerBase<World>> nn_planner,
                  std::shared_ptr<const SafetyModelBase<World>> safety_model,
                  CompoundOptions options = {})
      : nn_planner_(std::move(nn_planner)),
        safety_model_(std::move(safety_model)),
        options_(options) {
    CVSAFE_EXPECTS(nn_planner_ != nullptr,
                   "compound planner needs an embedded planner");
    CVSAFE_EXPECTS(safety_model_ != nullptr,
                   "compound planner needs a safety model");
    name_ = std::string("compound(") + std::string(nn_planner_->name()) +
            (options.aggressive_unsafe_set ? ", aggressive)" : ")");
  }

  /// One control step of the runtime monitor (Section III-C):
  /// kappa_e iff x(t) in X_b, otherwise kappa_n — with the aggressive
  /// unsafe set substituted when enabled. kappa_n plans on \p world
  /// itself when nothing shrinks, else on the planner's scratch world,
  /// whose storage is reused from step to step.
  double plan(const World& world) override {
    if (const auto emergency = monitor_gate(world)) return *emergency;
    if (!shrink_applies()) return nn_planner_->plan(world);
    scratch_ = world;
    safety_model_->shrink_for_planner(scratch_);
    return nn_planner_->plan(scratch_);
  }

  /// The monitor's half of plan(): advances the step/switch bookkeeping
  /// and returns the emergency acceleration when kappa_e takes this step,
  /// nullopt when control falls through to the embedded planner (which
  /// must then be evaluated on planner_view(world)). Exactly one of
  /// monitor_gate()/plan() may be called per control step.
  std::optional<double> monitor_gate(const World& world) {
    const std::size_t step = stats_.total_steps++;
    // Degradation ladder (degradation.hpp): at EMERGENCY-BIASED the X_b
    // membership test runs on the biased (inflated) view, so the monitor
    // fires earlier while the estimators are suspect. kappa_e itself is
    // still evaluated on the monitor's own view.
    bool biased = false;
    const bool on = obs::recording(recorder_);
    if (ladder_) {
      // The ladder emits no events; its transitions are recorded here.
      const DegradationLevel prev =
          on ? ladder_->level() : DegradationLevel::kFull;
      const DegradationLevel now = ladder_->update(step, signals_);
      biased = now == DegradationLevel::kEmergencyBiased;
      if (on && now != prev) {
        recorder_->ladder_transition(static_cast<int>(prev),
                                     static_cast<int>(now), step);
      }
    }
    if (biased) {
      scratch_ = world;
      safety_model_->bias_for_emergency(scratch_);
    }
    const World& check = biased ? scratch_ : world;
    if (on) recorder_->eta_sample(safety_model_->boundary_slack(check));
    if (safety_model_->in_boundary_safe_set(check)) {
      ++stats_.emergency_steps;
      if (!last_was_emergency_) {
        if (on) {
          recorder_->gate_verdict(true, safety_model_->boundary_slack(check));
        }
        record_switch(step, true, safety_model_->boundary_reason(check));
      }
      last_was_emergency_ = true;
      return safety_model_->emergency_accel(world);
    }
    if (last_was_emergency_) {
      if (on) {
        recorder_->gate_verdict(false, safety_model_->boundary_slack(check));
      }
      record_switch(step, false, {});
    }
    last_was_emergency_ = false;
    return std::nullopt;
  }

  /// The world the embedded planner sees when the monitor falls through:
  /// the aggressive (underestimated) unsafe set when enabled, the
  /// monitor's own view otherwise. Any degraded ladder level (REACH-ONLY
  /// and below) disables the aggressive shrink, so the embedded planner
  /// falls back to the conservative Eq. 7 windows.
  World planner_view(const World& world) const {
    World view = world;
    if (shrink_applies()) safety_model_->shrink_for_planner(view);
    return view;
  }

  /// Arms the degradation ladder; without this call the planner behaves
  /// exactly as before (no ladder, implicit degradation only).
  void enable_degradation(const LadderConfig& config) {
    ladder_.emplace(config);
  }

  /// Attach an event sink: per-step eta samples, planner switches (gate
  /// verdicts with the boundary slack s(t)) and ladder transitions. Pass
  /// nullptr to detach.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Information-quality signals for the NEXT monitor_gate()/plan() call;
  /// the episode driver refreshes these every step before planning.
  void note_signals(const DegradationSignals& signals) {
    signals_ = signals;
  }

  /// The ladder, when armed (level occupancy, transition log).
  const std::optional<DegradationLadder>& ladder() const { return ladder_; }

  /// True when a ladder is armed.
  bool has_ladder() const { return ladder_.has_value(); }

  /// Current rung (requires has_ladder()).
  DegradationLevel ladder_level() const {
    CVSAFE_EXPECTS(has_ladder(), "no degradation ladder armed");
    return ladder_->level();
  }

  /// Occupancy/transition tally (requires has_ladder()).
  DegradationStats ladder_stats() const {
    CVSAFE_EXPECTS(has_ladder(), "no degradation ladder armed");
    return ladder_->stats();
  }

  std::string_view name() const override { return name_; }

  /// True iff the most recent plan() was handled by kappa_e.
  bool last_was_emergency() const { return last_was_emergency_; }

  const MonitorStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = {};
    switch_events_.clear();
  }

  /// Planner hand-overs in order (capped at kMaxSwitchEvents; the cap is
  /// generous — a well-behaved run switches a handful of times).
  const std::vector<SwitchEvent>& switch_events() const {
    return switch_events_;
  }
  static constexpr std::size_t kMaxSwitchEvents = 512;

  const PlannerBase<World>& embedded_planner() const { return *nn_planner_; }
  const SafetyModelBase<World>& safety_model() const {
    return *safety_model_;
  }

 private:
  bool shrink_applies() const {
    if (has_ladder() && ladder_level() != DegradationLevel::kFull) {
      return false;
    }
    return options_.aggressive_unsafe_set;
  }

  void record_switch(std::size_t step, bool to_emergency,
                     std::string_view reason) {
    if (switch_events_.size() >= kMaxSwitchEvents) return;
    switch_events_.push_back(SwitchEvent{step, to_emergency, reason});
  }

  std::shared_ptr<PlannerBase<World>> nn_planner_;
  std::shared_ptr<const SafetyModelBase<World>> safety_model_;
  CompoundOptions options_;
  std::string name_;
  MonitorStats stats_;
  std::vector<SwitchEvent> switch_events_;
  bool last_was_emergency_ = false;
  std::optional<DegradationLadder> ladder_;
  DegradationSignals signals_;
  obs::Recorder* recorder_ = nullptr;
  /// Shrunk (plan) or biased (monitor_gate) copy of the step's world;
  /// copy-assignment reuses its storage. One step never needs both: the
  /// shrink is off at every degraded ladder level, EMERGENCY-BIASED too.
  World scratch_{};
};

}  // namespace cvsafe::core
