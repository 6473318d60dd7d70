#include "cvsafe/verify/certify.hpp"

#include <cmath>
#include <sstream>

#include "cvsafe/comm/channel.hpp"
#include "cvsafe/filter/info_filter.hpp"
#include "cvsafe/vehicle/accel_profile.hpp"
#include "cvsafe/vehicle/dynamics.hpp"
#include "cvsafe/vehicle/trajectory.hpp"

namespace cvsafe::verify {

using scenario::LeftTurnScenario;
using util::Interval;

namespace {

void record(Certificate& cert, std::size_t limit, Counterexample ce) {
  if (cert.counterexamples.size() < limit) {
    cert.counterexamples.push_back(std::move(ce));
  }
}

}  // namespace

Certificate certify_emergency_eq4(const LeftTurnScenario& scenario,
                                  const GridSpec& grid) {
  Certificate cert;
  cert.property = "Eq. 4: one emergency step from X_b stays outside X_u";
  const auto& g = scenario.geometry();
  const auto& lim = scenario.ego_limits();
  const double dt = scenario.control_period();
  const vehicle::DoubleIntegrator dyn(lim);

  for (double p0 = g.ego_start; p0 <= g.ego_front; p0 += grid.p_step) {
    for (double v0 = lim.v_min; v0 <= lim.v_max; v0 += grid.v_step) {
      if (scenario.slack(p0, v0) < 0.0) continue;  // slack-band branch only
      for (double lo = 0.0; lo <= grid.tau_max; lo += grid.tau_step) {
        for (double hi = lo + grid.tau_step; hi <= grid.tau_max + 1.0;
             hi += grid.tau_step) {
          const Interval tau1{lo, hi};
          if (!scenario.in_boundary_safe_set(0.0, p0, v0, tau1)) continue;
          ++cert.checked;
          const double a_e = scenario.emergency_accel(0.0, p0, v0, tau1);
          const auto next = dyn.step({p0, v0}, a_e, dt);
          if (scenario.in_unsafe_set(dt, next.p, next.v, tau1)) {
            std::ostringstream detail;
            detail << "a_e=" << a_e << " -> p=" << next.p << " v=" << next.v;
            record(cert, grid.max_counterexamples,
                   Counterexample{0.0, p0, v0, tau1, detail.str()});
          }
        }
      }
    }
  }
  return cert;
}

Certificate certify_resolvability_invariance(
    const LeftTurnScenario& scenario, std::size_t samples, util::Rng& rng) {
  Certificate cert;
  cert.property =
      "kappa_e preserves resolvability for committed states (fixed window)";
  const auto& g = scenario.geometry();
  const auto& lim = scenario.ego_limits();
  const double dt = scenario.control_period();
  const vehicle::DoubleIntegrator dyn(lim);

  std::size_t attempts = 0;
  while (cert.checked < samples && attempts < samples * 100) {
    ++attempts;
    const double p0 = rng.uniform(g.ego_start, g.ego_back);
    const double v0 = rng.uniform(lim.v_min, lim.v_max);
    const double lo = rng.uniform(0.0, 10.0);
    const Interval tau1{lo, lo + rng.uniform(0.3, 8.0)};
    if (scenario.slack(p0, v0) >= 0.0) continue;        // committed only
    if (!scenario.resolvable(0.0, p0, v0, tau1)) continue;
    ++cert.checked;
    const double a_e = scenario.emergency_accel(0.0, p0, v0, tau1);
    const auto next = dyn.step({p0, v0}, a_e, dt);
    if (!scenario.resolvable(dt, next.p, next.v, tau1)) {
      std::ostringstream detail;
      detail << "a_e=" << a_e << " -> p=" << next.p << " v=" << next.v;
      record(cert, 16, Counterexample{0.0, p0, v0, tau1, detail.str()});
    }
  }
  return cert;
}

Certificate certify_window_soundness(const LeftTurnScenario& scenario,
                                     std::size_t trajectories,
                                     util::Rng& rng) {
  Certificate cert;
  cert.property =
      "conservative window (Eq. 7) brackets the real passing interval";
  const auto& g = scenario.geometry();
  const auto& lim = scenario.oncoming_limits();
  const double dt = scenario.control_period();
  const vehicle::DoubleIntegrator dyn(lim);
  // Tolerance for the linear interpolation of the sampled trajectory.
  constexpr double kTol = 1e-3;

  for (std::size_t trial = 0; trial < trajectories; ++trial) {
    vehicle::VehicleState s{rng.uniform(-70.0, -35.0),
                            rng.uniform(lim.v_min, lim.v_max)};
    const auto steps = static_cast<std::size_t>(25.0 / dt);
    const auto profile =
        vehicle::AccelProfile::random(steps, dt, s.v, lim, {}, rng);
    vehicle::Trajectory traj;
    for (std::size_t step = 0; step < steps; ++step) {
      traj.push({static_cast<double>(step) * dt, s, profile.at(step)});
      s = dyn.step(s, profile.at(step), dt);
    }
    const double entry = traj.first_time_at_position(g.c1_front);
    const double exit = traj.first_time_at_position(g.c1_back);
    if (entry < 0.0 || exit < 0.0) continue;

    for (std::size_t step = 0; step < steps; step += 5) {
      const auto& snap = traj[step];
      if (snap.t >= entry) break;
      filter::StateEstimate est;
      est.t = snap.t;
      est.p = Interval::point(snap.state.p);
      est.v = Interval::point(snap.state.v);
      est.p_hat = snap.state.p;
      est.v_hat = snap.state.v;
      est.a_hat = snap.a;
      est.valid = true;
      const Interval w = scenario.c1_window_conservative(est);
      ++cert.checked;
      if (w.empty() || w.lo > entry + kTol || w.hi < exit - kTol) {
        std::ostringstream detail;
        detail << "window [" << w.lo << "," << w.hi << "] vs real ["
               << entry << "," << exit << "]";
        record(cert, 16,
               Counterexample{snap.t, snap.state.p, snap.state.v, w,
                              detail.str()});
      }
    }
  }
  return cert;
}

Certificate certify_filter_monotonicity(const LeftTurnScenario& scenario,
                                        const sensing::SensorConfig& sensor,
                                        const comm::CommConfig& comm,
                                        std::size_t episodes, util::Rng& rng,
                                        double tolerance) {
  Certificate cert;
  cert.property =
      "sound window bounds are monotone in absolute time (set-membership "
      "filter)";
  const auto& lim = scenario.oncoming_limits();
  const double dt = scenario.control_period();
  const vehicle::DoubleIntegrator dyn(lim);

  for (std::size_t episode = 0; episode < episodes; ++episode) {
    vehicle::VehicleState s{rng.uniform(-65.0, -45.0),
                            rng.uniform(lim.v_min, lim.v_max)};
    const auto steps = static_cast<std::size_t>(12.0 / dt);
    const auto profile =
        vehicle::AccelProfile::random(steps, dt, s.v, lim, {}, rng);
    filter::InformationFilter est(lim, sensor,
                                  filter::InfoFilterOptions::basic());
    sensing::Sensor sense(sensor);
    comm::Channel channel(comm);

    bool have_prev = false;
    Interval prev;
    for (std::size_t step = 0; step < steps; ++step) {
      const double t = static_cast<double>(step) * dt;
      const double a = profile.at(step);
      const vehicle::VehicleSnapshot snap{t, s, a};
      channel.offer(comm::Message{1, snap}, rng);
      for (const auto& msg : channel.collect(t)) est.on_message(msg);
      if (const auto r = sense.sense(snap, rng)) est.on_sensor(*r);

      const auto e = est.estimate(t);
      if (e.valid) {
        const Interval w = scenario.c1_window_conservative(e);
        if (!w.empty()) {
          ++cert.checked;
          if (have_prev &&
              (w.lo < prev.lo - tolerance || w.hi > prev.hi + tolerance)) {
            std::ostringstream detail;
            detail << "window regressed: [" << prev.lo << "," << prev.hi
                   << "] -> [" << w.lo << "," << w.hi << "]";
            record(cert, 16,
                   Counterexample{t, s.p, s.v, w, detail.str()});
          }
          prev = w;
          have_prev = true;
        } else {
          // Window became empty (vehicle certainly passed): terminal.
          break;
        }
      }
      s = dyn.step(s, a, dt);
    }
  }
  return cert;
}

Certificate certify_lane_change_eq4(
    const scenario::LaneChangeScenario& scenario, std::size_t samples,
    util::Rng& rng) {
  Certificate cert;
  cert.property =
      "lane change: one emergency step from X_b stays outside X_u";
  const auto& ego = scenario.ego_limits();
  const auto& c1 = scenario.c1_limits();
  const auto& g = scenario.geometry();
  const double dt = scenario.control_period();
  const vehicle::DoubleIntegrator ego_dyn(ego);
  const vehicle::DoubleIntegrator c1_dyn(c1);

  std::size_t attempts = 0;
  while (cert.checked < samples && attempts < samples * 50) {
    ++attempts;
    const double p0 = rng.uniform(g.ego_start, g.target);
    const double v0 = rng.uniform(ego.v_min, ego.v_max);
    const vehicle::VehicleState lead{
        p0 + rng.uniform(0.0, 40.0), rng.uniform(c1.v_min, c1.v_max)};
    filter::StateEstimate est;
    est.t = 0.0;
    est.p = util::Interval::point(lead.p);
    est.v = util::Interval::point(lead.v);
    est.p_hat = lead.p;
    est.v_hat = lead.v;
    est.valid = true;

    if (scenario.in_unsafe_set(p0, est)) continue;
    // Eq. 4 is claimed on the invariant set compound control maintains:
    // once merged, the gap covers the sustainable requirement
    // min_gap + (v0 - v_min,lead)^2 / (2 |a_min|). States violating the
    // invariant (unreachable under the monitor) are excluded.
    if (scenario.merged(p0)) {
      const double dv = std::max(0.0, v0 - c1.v_min);
      const double required =
          g.min_gap + dv * dv / (2.0 * -ego.a_min);
      if (scenario.worst_case_gap(p0, est) < required) continue;
    }
    if (!scenario.in_boundary_safe_set(0.0, p0, v0, est)) continue;
    ++cert.checked;
    const double a_e = scenario.emergency_accel(p0, v0);
    const auto ego_next = ego_dyn.step({p0, v0}, a_e, dt);
    // Worst case for the gap: the leading vehicle brakes as hard as it can.
    const auto lead_next = c1_dyn.step(lead, c1.a_min, dt);
    filter::StateEstimate next_est = est;
    next_est.t = dt;
    next_est.p = util::Interval::point(lead_next.p);
    next_est.v = util::Interval::point(lead_next.v);
    next_est.p_hat = lead_next.p;
    next_est.v_hat = lead_next.v;
    if (scenario.in_unsafe_set(ego_next.p, next_est)) {
      std::ostringstream detail;
      detail << "a_e=" << a_e << " ego->" << ego_next.p << " lead->"
             << lead_next.p;
      record(cert, 16,
             Counterexample{0.0, p0, v0,
                            util::Interval{lead.p, lead.p}, detail.str()});
    }
  }
  return cert;
}

Certificate certify_intersection_invariance(
    const scenario::IntersectionScenario& scenario, std::size_t samples,
    util::Rng& rng) {
  Certificate cert;
  cert.property =
      "intersection: kappa_e preserves joint resolvability (fixed windows)";
  const auto& ego = scenario.ego_limits();
  const auto& g = scenario.geometry();
  const double dt = scenario.control_period();
  const vehicle::DoubleIntegrator dyn(ego);

  std::size_t attempts = 0;
  while (cert.checked < samples && attempts < samples * 50) {
    ++attempts;
    scenario::IntersectionWorld w;
    w.t = 0.0;
    w.ego = {rng.uniform(g.ego_start, g.zone_b_back),
             rng.uniform(ego.v_min, ego.v_max)};
    const auto window = [&rng] {
      const double lo = rng.uniform(0.0, 8.0);
      return util::Interval{lo, lo + rng.uniform(0.3, 6.0)};
    };
    w.tau_a = util::IntervalSet{window(), window()};
    w.tau_b = util::IntervalSet{window(), window()};
    if (!scenario.resolvable(w.t, w.ego, w.tau_a, w.tau_b)) continue;
    ++cert.checked;
    const double a_e = scenario.emergency_accel(w);
    const auto s = dyn.step(w.ego, a_e, dt);
    if (!scenario.resolvable(dt, s, w.tau_a, w.tau_b)) {
      std::ostringstream detail;
      detail << "a_e=" << a_e << " -> p=" << s.p << " v=" << s.v;
      record(cert, 16,
             Counterexample{0.0, w.ego.p, w.ego.v,
                            w.tau_a.hull(), detail.str()});
    }
  }
  return cert;
}

}  // namespace cvsafe::verify
