#include "cvsafe/sim/intersection.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/sim/cruise_planner.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/util/kinematics.hpp"

namespace cvsafe::sim {

using scenario::IntersectionWorld;

std::shared_ptr<const scenario::IntersectionScenario>
IntersectionSimConfig::make_scenario() const {
  return std::make_shared<const scenario::IntersectionScenario>(
      geometry, ego_limits, dt_c);
}

namespace {

/// Conservative occupancy window of one cross vehicle for the zone
/// [front, back] in its own path coordinate — the same Eq. 7 structure as
/// the left-turn case study, from sound set bounds.
util::Interval conservative_window(const filter::StateEstimate& est,
                                   double front, double back,
                                   const vehicle::VehicleLimits& lim) {
  if (!est.valid) return util::Interval{est.t, 1e18};
  if (est.p.lo >= back) return util::Interval::empty_interval();
  const double t = est.t;
  double entry;
  if (est.p.hi >= front) {
    entry = t;
  } else {
    entry = t + util::time_to_travel(front - est.p.hi, est.v.hi, lim.a_max,
                                     lim.v_max);
  }
  const double exit = t + util::time_to_travel(back - est.p.lo, est.v.lo,
                                               lim.a_min,
                                               std::max(lim.v_min, 0.1));
  if (exit < entry) return util::Interval::empty_interval();
  return util::Interval{entry, exit};
}

class IntersectionEpisode final : public Episode<IntersectionWorld> {
 public:
  /// Workload draw order (fixed), per lane A then lane B: lead gap, then
  /// per vehicle its initial speed, acceleration profile and trailing
  /// headway.
  IntersectionEpisode(
      const IntersectionSimConfig& config,
      std::shared_ptr<const scenario::IntersectionScenario> scn,
      bool use_compound, util::Rng& rng, std::size_t total_steps,
      std::uint64_t seed)
      : config_(&config),
        scn_(std::move(scn)),
        cross_dyn_(config.cross_limits) {
    // Actor ids stay unique across lanes so each actor gets its own
    // fault stream (actor_channel / actor_sensor derive by id).
    lane_a_ = make_stream(config, rng, total_steps, seed, 1);
    lane_b_ = make_stream(config, rng, total_steps, seed,
                          1 + static_cast<std::uint32_t>(
                                  config.vehicles_per_lane));
    for (const auto* lane : {&lane_a_, &lane_b_}) {
      for (const auto& car : *lane) {
        filters_.push_back(static_cast<filter::InformationFilter*>(
            car.estimators.front().get()));
      }
    }

    auto cruise = std::make_shared<CruisePlanner<IntersectionWorld>>(
        11.0, config.ego_limits);
    if (use_compound) {
      auto model =
          std::make_shared<scenario::IntersectionSafetyModel>(scn_);
      auto compound =
          std::make_shared<core::CompoundPlanner<IntersectionWorld>>(
              std::move(cruise), std::move(model));
      compound_ = compound.get();
      planner_ = std::move(compound);
      if (config.ladder) compound_->enable_degradation(*config.ladder);
    } else {
      planner_ = std::move(cruise);
    }
    ego_init_ =
        vehicle::VehicleState{config.geometry.ego_start, config.ego_v0};
  }

  void observe(IntersectionWorld& world, double t, std::size_t step,
               util::Rng& rng) override {
    update_stream(lane_a_, t, step, rng, world.tau_a);
    update_stream(lane_b_, t, step, rng, world.tau_b);
    if (compound_ != nullptr && compound_->has_ladder()) {
      SignalAccumulator acc;
      for (const auto* f : filters_) acc.add(degradation_signals(*f, t));
      compound_->note_signals(acc.worst);
    }
  }

  void finalize(RunResult& result) const override {
    for (const auto* f : filters_) {
      const filter::RejectionCounters& c = f->rejections();
      result.messages_accepted += c.accepted;
      result.messages_rejected += c.total_rejected();
      result.rejection_reasons[0] += c.non_finite;
      result.rejection_reasons[1] += c.out_of_range;
      result.rejection_reasons[2] += c.stale;
      result.rejection_reasons[3] += c.implausible;
    }
  }

  void attach_ring(obs::RingRecorder* ring) override {
    if (compound_ != nullptr) compound_->set_ring(ring);
    for (auto* f : filters_) f->set_ring(ring);
  }

  void advance_traffic(std::size_t step, double dt) override {
    for (auto& car : lane_a_) {
      car.state = cross_dyn_.step(car.state, car.profile.at(step), dt);
    }
    for (auto& car : lane_b_) {
      car.state = cross_dyn_.step(car.state, car.profile.at(step), dt);
    }
  }

  StepStatus check(const vehicle::VehicleState& ego) const override {
    StepStatus status;
    if ((scn_->in_zone_a(ego.p) && stream_occupies(lane_a_)) ||
        (scn_->in_zone_b(ego.p) && stream_occupies(lane_b_))) {
      status.collided = true;
    } else if (ego.p >= config_->geometry.ego_target) {
      status.reached = true;
    }
    return status;
  }

 private:
  static std::vector<TrafficActor> make_stream(
      const IntersectionSimConfig& config, util::Rng& rng,
      std::size_t total_steps, std::uint64_t seed,
      std::uint32_t id_base) {
    std::vector<TrafficActor> stream;
    stream.reserve(config.vehicles_per_lane);
    double p = config.cross_zone_front -
               rng.uniform(config.lead_gap_min, config.lead_gap_max);
    for (std::size_t i = 0; i < config.vehicles_per_lane; ++i) {
      const auto id = id_base + static_cast<std::uint32_t>(i);
      const double v0 = rng.uniform(config.v_init_min, config.v_init_max);
      vehicle::AccelProfile profile = vehicle::AccelProfile::random(
          total_steps, config.dt_c, v0, config.cross_limits, {}, rng);
      std::vector<std::unique_ptr<filter::Estimator>> estimators;
      estimators.push_back(std::make_unique<filter::InformationFilter>(
          config.cross_limits, config.sensor,
          filter::InfoFilterOptions::basic(), config.gate));
      stream.push_back(TrafficActor{id,
                                    vehicle::VehicleState{p, v0},
                                    std::move(profile),
                                    actor_channel(config, id, seed),
                                    actor_sensor(config, id, seed),
                                    std::move(estimators),
                                    {}});
      p -= rng.uniform(config.headway_min, config.headway_max);
    }
    return stream;
  }

  void update_stream(std::vector<TrafficActor>& stream, double t,
                     std::size_t step, util::Rng& rng,
                     util::IntervalSet& tau) {
    for (auto& car : stream) {
      pump(car, t, step, rng);
      tau.insert(conservative_window(
          car.estimators.front()->estimate(t), config_->cross_zone_front,
          config_->cross_zone_back, config_->cross_limits));
    }
  }

  bool stream_occupies(const std::vector<TrafficActor>& stream) const {
    for (const auto& car : stream) {
      if (car.state.p > config_->cross_zone_front &&
          car.state.p < config_->cross_zone_back) {
        return true;
      }
    }
    return false;
  }

  const IntersectionSimConfig* config_;
  std::shared_ptr<const scenario::IntersectionScenario> scn_;
  vehicle::DoubleIntegrator cross_dyn_;
  std::vector<TrafficActor> lane_a_;
  std::vector<TrafficActor> lane_b_;
  /// Typed views of every actor's estimator (signals, gate tallies).
  std::vector<filter::InformationFilter*> filters_;
};

}  // namespace

IntersectionAdapter::IntersectionAdapter(IntersectionSimConfig config,
                                         bool use_compound)
    : config_(std::move(config)),
      use_compound_(use_compound),
      scn_(config_.make_scenario()) {}

std::unique_ptr<Episode<IntersectionWorld>>
IntersectionAdapter::make_episode(util::Rng& rng, std::size_t total_steps,
                                  std::uint64_t seed) const {
  return std::make_unique<IntersectionEpisode>(config_, scn_, use_compound_,
                                               rng, total_steps, seed);
}

RunResult run_intersection_simulation(const IntersectionSimConfig& config,
                                      bool use_compound,
                                      std::uint64_t seed) {
  IntersectionAdapter adapter(config, use_compound);
  return run_episode(adapter, seed);
}

BatchStats run_intersection_batch(const IntersectionSimConfig& config,
                                  bool use_compound, std::size_t n,
                                  std::uint64_t base_seed,
                                  std::size_t threads, SeedPolicy policy) {
  IntersectionAdapter adapter(config, use_compound);
  FleetConfig fleet;
  fleet.threads = threads;
  fleet.policy = policy;
  return stats_from_records(run_fleet_records(adapter, n, base_seed, fleet));
}

}  // namespace cvsafe::sim
