// Per-sweep equivalence of the pool-resident SoA safety stack against its
// scalar reference implementations. The fleet engine's batched sweeps are
// only allowed to exist because every slot evolves bit-identically to a
// scalar object fed the same sequence: FleetEstimator vs KalmanFilter,
// the SoA propagate_batch vs scalar propagate, FleetLadder vs
// DegradationLadder. Every comparison below is EXPECT_EQ on doubles —
// shared kalman_core / ladder_target math, not approximate agreement.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "cvsafe/core/degradation.hpp"
#include "cvsafe/filter/fleet_estimator.hpp"
#include "cvsafe/filter/kalman.hpp"
#include "cvsafe/filter/reachability.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/vehicle/dynamics.hpp"

namespace {

using namespace cvsafe;

// Deterministic measurement stream: smooth, phase-shifted per lane so no
// two lanes see the same sequence (a transposed-slot bug cannot cancel).
sensing::SensorReading reading_at(double t, double phase) {
  sensing::SensorReading r;
  r.t = t;
  r.p = 50.0 + 3.0 * t + 0.5 * std::sin(2.3 * t + phase);
  r.v = 3.0 + 0.25 * std::cos(1.7 * t + phase);
  r.a = 0.25 * std::sin(0.9 * t + phase);
  return r;
}

void expect_slot_matches_scalar(const filter::FleetEstimator& pool,
                                std::size_t slot,
                                const filter::KalmanFilter& scalar,
                                double t_query) {
  EXPECT_EQ(pool.initialized(slot), scalar.initialized());
  EXPECT_EQ(pool.last_update_time(slot), scalar.last_update_time());
  EXPECT_EQ(pool.q_scale(slot), scalar.q_scale());
  EXPECT_EQ(pool.nis(slot).mean_nis(), scalar.nis().mean_nis());
  EXPECT_EQ(pool.nis(slot).count(), scalar.nis().count());

  const auto pv = pool.view(slot);
  const auto sv = scalar.view();
  EXPECT_EQ(pv.x.x, sv.x.x);
  EXPECT_EQ(pv.x.y, sv.x.y);
  EXPECT_EQ(pv.p.a, sv.p.a);
  EXPECT_EQ(pv.p.b, sv.p.b);
  EXPECT_EQ(pv.p.c, sv.p.c);
  EXPECT_EQ(pv.p.d, sv.p.d);

  const util::Vec2 px = pool.state_at(slot, t_query);
  const util::Vec2 sx = scalar.state_at(t_query);
  EXPECT_EQ(px.x, sx.x);
  EXPECT_EQ(px.y, sx.y);

  const util::Interval pp = pool.position_interval(slot, t_query);
  const util::Interval sp = scalar.position_interval(t_query);
  EXPECT_EQ(pp.lo, sp.lo);
  EXPECT_EQ(pp.hi, sp.hi);
  const util::Interval pvel = pool.velocity_interval(slot, t_query);
  const util::Interval svel = scalar.velocity_interval(t_query);
  EXPECT_EQ(pvel.lo, svel.lo);
  EXPECT_EQ(pvel.hi, svel.hi);
}

TEST(FleetEstimator, UpdateSweepMatchesScalarKalmanPerSlot) {
  filter::KalmanConfig config;
  config.dt = 0.1;
  config.delta_p = 0.8;
  config.delta_v = 0.4;
  config.delta_a = 0.6;
  config.history_depth = 8;

  filter::FleetEstimator pool;
  constexpr std::size_t kLanes = 5;
  std::vector<std::size_t> slots;
  std::vector<filter::KalmanFilter> scalars;
  for (std::size_t i = 0; i < kLanes; ++i) {
    slots.push_back(pool.acquire(config));
    scalars.emplace_back(config);
  }

  for (std::size_t step = 0; step < 30; ++step) {
    const double t = 0.1 * static_cast<double>(step);
    // Staging order is reversed relative to slot order: the sweep must
    // not depend on the order readings were staged, only on their slots.
    for (std::size_t i = kLanes; i-- > 0;) {
      const double phase = 0.7 * static_cast<double>(i);
      pool.stage(slots[i], reading_at(t, phase));
    }
    pool.update_batch();
    for (std::size_t i = 0; i < kLanes; ++i) {
      scalars[i].update(reading_at(t, 0.7 * static_cast<double>(i)));
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      expect_slot_matches_scalar(pool, slots[i], scalars[i], t + 0.05);
    }
  }
}

TEST(FleetEstimator, MessageRollbackMatchesScalar) {
  filter::KalmanConfig config;
  config.history_depth = 16;
  filter::FleetEstimator pool;
  const std::size_t slot = pool.acquire(config);
  filter::KalmanFilter scalar(config);

  for (std::size_t step = 0; step < 12; ++step) {
    const double t = 0.1 * static_cast<double>(step);
    pool.stage(slot, reading_at(t, 0.3));
    pool.update_batch();
    scalar.update(reading_at(t, 0.3));
  }

  // Exact state reported at a time inside the retained history: both
  // stores must rewind, re-anchor, and replay the same tail.
  pool.correct_with_message(slot, 0.55, 51.6, 3.1, 0.2);
  scalar.correct_with_message(0.55, 51.6, 3.1, 0.2);
  expect_slot_matches_scalar(pool, slot, scalar, 1.3);

  // The filters keep running after the rollback.
  for (std::size_t step = 12; step < 20; ++step) {
    const double t = 0.1 * static_cast<double>(step);
    pool.stage(slot, reading_at(t, 0.3));
    pool.update_batch();
    scalar.update(reading_at(t, 0.3));
    expect_slot_matches_scalar(pool, slot, scalar, t + 0.07);
  }

  // Messages older than an applied one are ignored by both.
  pool.correct_with_message(slot, 0.4, 50.0, 3.0, 0.0);
  scalar.correct_with_message(0.4, 50.0, 3.0, 0.0);
  expect_slot_matches_scalar(pool, slot, scalar, 2.1);
}

TEST(FleetEstimator, RecordsTheRollbacksScalarKalmanRecords) {
  // The fleet engine's flight dumps are byte-identical to the per-lane
  // engine's only if a pool slot emits the scalar filter's rollback
  // events, in the same order, with the same anchor and replay extent.
  filter::KalmanConfig config;
  config.history_depth = 16;
  filter::FleetEstimator pool;
  std::size_t slot = pool.acquire(config);
  filter::KalmanFilter scalar(config);
  obs::Recorder pool_events;
  obs::Recorder scalar_events;
  pool_events.set_enabled(true);
  scalar_events.set_enabled(true);
  pool.set_recorder(slot, &pool_events);
  scalar.set_recorder(&scalar_events);

  for (std::size_t step = 0; step < 20; ++step) {
    const double t = 0.1 * static_cast<double>(step);
    pool.stage(slot, reading_at(t, 0.3));
    pool.update_batch();
    scalar.update(reading_at(t, 0.3));
    if (step == 8) {  // inside the history: rewind and replay
      pool.correct_with_message(slot, 0.55, 51.6, 3.1, 0.2);
      scalar.correct_with_message(0.55, 51.6, 3.1, 0.2);
    }
    if (step == 12) {  // older than the applied message: ignored
      pool.correct_with_message(slot, 0.4, 50.0, 3.0, 0.0);
      scalar.correct_with_message(0.4, 50.0, 3.0, 0.0);
    }
    if (step == 15) {  // newer than every reading: adopted, no replay
      pool.correct_with_message(slot, 1.6, 55.0, 3.2, 0.1);
      scalar.correct_with_message(1.6, 55.0, 3.2, 0.1);
    }
  }
  ASSERT_EQ(scalar_events.size(), 2u);
  ASSERT_EQ(pool_events.size(), scalar_events.size());
  for (std::size_t i = 0; i < scalar_events.size(); ++i) {
    const obs::Event& want = scalar_events.event(i);
    const obs::Event& got = pool_events.event(i);
    EXPECT_EQ(got.kind,
              static_cast<std::uint8_t>(obs::EventKind::kKalmanRollback));
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.aux, want.aux) << "replayed, event " << i;
    EXPECT_EQ(got.value, want.value) << "anchor, event " << i;
  }
  EXPECT_GT(scalar_events.event(0).aux, 0u) << "the first rollback replays";
  EXPECT_EQ(scalar_events.event(1).aux, 0u) << "adoption replays nothing";

  // A reacquired slot starts detached.
  pool.release(slot);
  slot = pool.acquire(config);
  pool.stage(slot, reading_at(0.0, 0.3));
  pool.update_batch();
  pool.correct_with_message(slot, 0.5, 51.0, 3.0, 0.0);
  EXPECT_EQ(pool_events.size(), 2u);
}

TEST(FleetEstimator, PredictCacheIsTransparent) {
  filter::KalmanConfig config;
  filter::FleetEstimator pool;
  const std::size_t slot = pool.acquire(config);
  filter::KalmanFilter scalar(config);

  for (std::size_t step = 0; step < 6; ++step) {
    const double t = 0.1 * static_cast<double>(step);
    pool.stage(slot, reading_at(t, 1.1));
    pool.update_batch();
    scalar.update(reading_at(t, 1.1));
  }

  const double t_staged = 0.62;
  pool.stage_predict(slot, t_staged);
  pool.predict_batch();

  // Cache-hit read (the staged time) and cache-miss reads (other times)
  // must be indistinguishable from the scalar on-the-fly computation.
  for (const double t : {t_staged, 0.58, 0.75, 1.5}) {
    expect_slot_matches_scalar(pool, slot, scalar, t);
  }

  // A measurement sweep invalidates the cache: the cached (x, P) at
  // t_staged must not survive into the post-update state.
  pool.stage(slot, reading_at(0.7, 1.1));
  pool.update_batch();
  scalar.update(reading_at(0.7, 1.1));
  expect_slot_matches_scalar(pool, slot, scalar, t_staged);
}

TEST(FleetEstimator, AdaptiveQScaleMatchesScalar) {
  filter::KalmanConfig config;
  config.adaptive = true;
  config.delta_p = 0.3;
  config.delta_v = 0.2;
  config.delta_a = 0.1;  // overconfident model: NIS inflation engages
  filter::FleetEstimator pool;
  const std::size_t slot = pool.acquire(config);
  filter::KalmanFilter scalar(config);

  for (std::size_t step = 0; step < 40; ++step) {
    const double t = 0.1 * static_cast<double>(step);
    // Hard maneuver the model does not expect.
    sensing::SensorReading r;
    r.t = t;
    r.p = 50.0 + 3.0 * t + 2.0 * std::sin(4.0 * t);
    r.v = 3.0 + 6.0 * std::cos(4.0 * t);
    r.a = 0.0;
    pool.stage(slot, r);
    pool.update_batch();
    scalar.update(r);
    expect_slot_matches_scalar(pool, slot, scalar, t + 0.05);
  }
  EXPECT_GT(pool.q_scale(slot), 1.0);  // the adaptive path actually ran
}

TEST(FleetEstimator, SlotReuseResetsToVirginState) {
  filter::KalmanConfig config;
  filter::FleetEstimator pool;
  const std::size_t a = pool.acquire(config);
  const std::size_t b = pool.acquire(config);
  EXPECT_EQ(pool.active(), 2u);

  for (std::size_t step = 0; step < 10; ++step) {
    const double t = 0.1 * static_cast<double>(step);
    pool.stage(a, reading_at(t, 0.0));
    pool.stage(b, reading_at(t, 2.0));
    pool.update_batch();
  }

  pool.release(a);
  const std::size_t a2 = pool.acquire(config);  // free-listed: same slot
  EXPECT_EQ(a2, a);
  EXPECT_FALSE(pool.initialized(a2));
  EXPECT_EQ(pool.nis(a2).count(), 0u);

  // The reused slot behaves like a fresh scalar filter — including the
  // rollback history, which must not leak from the previous tenant.
  filter::KalmanFilter scalar(config);
  for (std::size_t step = 0; step < 8; ++step) {
    const double t = 0.1 * static_cast<double>(step);
    pool.stage(a2, reading_at(t, 5.0));
    pool.update_batch();
    scalar.update(reading_at(t, 5.0));
  }
  pool.correct_with_message(a2, 0.35, 51.0, 3.05, 0.1);
  scalar.correct_with_message(0.35, 51.0, 3.05, 0.1);
  expect_slot_matches_scalar(pool, a2, scalar, 0.9);

  // The untouched neighbor was not disturbed by the reuse.
  filter::KalmanFilter scalar_b(config);
  for (std::size_t step = 0; step < 10; ++step) {
    scalar_b.update(reading_at(0.1 * static_cast<double>(step), 2.0));
  }
  expect_slot_matches_scalar(pool, b, scalar_b, 1.0);
}

// --- SoA reachability sweep ----------------------------------------------

TEST(ReachabilitySweep, BatchOverloadsMatchScalarPropagate) {
  const vehicle::VehicleLimits limits{2.0, 15.0, -3.0, 3.0};

  std::vector<filter::StateBounds> in;
  std::vector<double> t;
  for (std::size_t i = 0; i < 33; ++i) {
    const double base = 0.1 * static_cast<double>(i);
    filter::StateBounds b;
    b.t = base;
    b.p = util::Interval{40.0 + base, 41.5 + 2.0 * base};
    b.v = util::Interval{2.0 + 0.25 * base, 4.0 + 0.5 * base};
    in.push_back(b);
    // Mix of horizons, including saturating ones and the dt <= 0 branch
    // (lane 7: target before the source time, propagate returns input).
    t.push_back(i == 7 ? base - 0.5 : base + 0.05 * static_cast<double>(i));
  }

  // AoS span overload.
  std::vector<filter::StateBounds> out(in.size());
  filter::propagate_batch(in, t, limits, out);

  // Per-field SoA overload.
  const std::size_t n = in.size();
  std::vector<double> t0(n), p_lo(n), p_hi(n), v_lo(n), v_hi(n);
  for (std::size_t i = 0; i < n; ++i) {
    t0[i] = in[i].t;
    p_lo[i] = in[i].p.lo;
    p_hi[i] = in[i].p.hi;
    v_lo[i] = in[i].v.lo;
    v_hi[i] = in[i].v.hi;
  }
  std::vector<double> ot(n), opl(n), oph(n), ovl(n), ovh(n);
  filter::propagate_batch(
      filter::ReachLanes{t0, p_lo, p_hi, v_lo, v_hi, t}, limits, ot, opl,
      oph, ovl, ovh);

  for (std::size_t i = 0; i < n; ++i) {
    const filter::StateBounds ref = filter::propagate(in[i], t[i], limits);
    EXPECT_EQ(out[i].t, ref.t) << "lane " << i;
    EXPECT_EQ(out[i].p.lo, ref.p.lo) << "lane " << i;
    EXPECT_EQ(out[i].p.hi, ref.p.hi) << "lane " << i;
    EXPECT_EQ(out[i].v.lo, ref.v.lo) << "lane " << i;
    EXPECT_EQ(out[i].v.hi, ref.v.hi) << "lane " << i;
    EXPECT_EQ(ot[i], ref.t) << "lane " << i;
    EXPECT_EQ(opl[i], ref.p.lo) << "lane " << i;
    EXPECT_EQ(oph[i], ref.p.hi) << "lane " << i;
    EXPECT_EQ(ovl[i], ref.v.lo) << "lane " << i;
    EXPECT_EQ(ovh[i], ref.v.hi) << "lane " << i;
  }
}

// --- Pool-resident ladder ------------------------------------------------

// A signal script that walks the ladder through every regime: healthy,
// stale, lost, inconsistent, then a recovery with one mid-streak relapse
// (exercising the clear-streak reset) and a full hysteretic climb.
core::DegradationSignals signal_at(std::size_t step) {
  core::DegradationSignals s;
  s.have_message = step >= 1;
  s.filter_consistent = !(step >= 14 && step < 17);
  if (step < 4) {
    s.message_age = 0.05;
  } else if (step < 8) {
    s.message_age = 0.6;  // stale (budget 0.3)
  } else if (step < 14) {
    s.message_age = 1.4;  // lost (budget 1.0)
  } else if (step == 20) {
    s.message_age = 0.4;  // relapse above the tightened recover budget
  } else {
    s.message_age = 0.05;  // clear: climbs back one rung per streak
  }
  return s;
}

TEST(FleetLadder, MatchesScalarDegradationLadder) {
  core::LadderConfig config;
  config.recover_steps = 3;

  core::DegradationLadder scalar(config);
  core::FleetLadder pool;
  const std::size_t slot = pool.acquire(config);

  for (std::size_t step = 0; step < 60; ++step) {
    const core::DegradationSignals s = signal_at(step);
    const core::DegradationLevel want = scalar.update(step, s);
    const core::DegradationLevel got = pool.update(slot, s);
    EXPECT_EQ(got, want) << "step " << step;
    EXPECT_EQ(pool.level(slot), scalar.level()) << "step " << step;
  }

  const core::DegradationStats want = scalar.stats();
  const core::DegradationStats got = pool.stats(slot);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_GT(want.transitions, 0u);  // the script actually moved the ladder
  for (std::size_t i = 0; i < core::kNumDegradationLevels; ++i) {
    EXPECT_EQ(got.steps_at[i], want.steps_at[i]) << "level " << i;
  }
}

TEST(FleetLadder, SlotReuseResetsHysteresisAndTallies) {
  core::LadderConfig config;
  core::FleetLadder pool;
  const std::size_t slot = pool.acquire(config);

  core::DegradationSignals bad;
  bad.filter_consistent = false;
  pool.update(slot, bad);
  ASSERT_EQ(pool.level(slot), core::DegradationLevel::kEmergencyBiased);

  pool.release(slot);
  const std::size_t again = pool.acquire(config);
  EXPECT_EQ(again, slot);
  EXPECT_EQ(pool.level(again), core::DegradationLevel::kFull);
  const core::DegradationStats stats = pool.stats(again);
  EXPECT_EQ(stats.transitions, 0u);
  for (const std::size_t steps : stats.steps_at) EXPECT_EQ(steps, 0u);
}

}  // namespace
