// cvsafe_bench: the project's perf harness. Times every stage of the
// per-control-step pipeline (matmul, MLP forward, Kalman, reachability,
// boundary grid, full-episode batches) and emits a BENCH_<name>.json file
// that scripts/bench_compare.py diffs against a committed baseline to gate
// perf regressions in CI (see docs/PERFORMANCE.md for the schema).
//
// Heap allocations are counted by replacing the global allocation
// functions in this translation unit's binary; `allocs_per_op` therefore
// covers every operator-new in the timed region, which is how the
// zero-allocation claim of the nn::Workspace path is enforced rather than
// just asserted.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cvsafe/adv/optimizer.hpp"
#include "cvsafe/adv/param_space.hpp"
#include "cvsafe/comm/channel.hpp"
#include "cvsafe/core/compound_planner.hpp"
#include "cvsafe/core/preimage.hpp"
#include "cvsafe/eval/batch.hpp"
#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/fault/fault_plan.hpp"
#include "cvsafe/fault/faulty_channel.hpp"
#include "cvsafe/filter/kalman.hpp"
#include "cvsafe/filter/reachability.hpp"
#include "cvsafe/nn/interval_mlp.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/nn/optimizer.hpp"
#include "cvsafe/nn/trainer.hpp"
#include "cvsafe/nn/workspace.hpp"
#include "cvsafe/obs/flight_recorder.hpp"
#include "cvsafe/obs/recorder.hpp"
#include "cvsafe/planners/expert.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/planners/training.hpp"
#include "cvsafe/scenario/left_turn.hpp"
#include "cvsafe/scenario/safety_model.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/verify/sound.hpp"
#include "support/legacy_reference.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// The replaced global allocation functions below pair malloc-backed
// operator new with free-backed operator delete. That pairing is correct
// for a full replacement, but once allocations inline into this TU GCC's
// -Wmismatched-new-delete can no longer see it and reports false
// positives at every make_shared/make_unique instantiation.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// Counting allocation functions. Deliberately exhaustive over the aligned
// and sized variants so no allocation path escapes the counter.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = std::max<std::size_t>(static_cast<std::size_t>(align),
                                              sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, a, size ? size : a) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;  // defeats dead-code elimination

struct BenchResult {
  std::string name;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
  std::uint64_t iterations = 0;
};

struct Options {
  std::string out = "BENCH_micro.json";
  std::string filter;            // substring match on bench names
  double min_time_s = 0.25;      // measured time per benchmark
  std::size_t grid = 512;        // boundary-grid side length
  std::size_t grid_threads = 8;  // worker count for the parallel grid
  bool list = false;
};

double elapsed_s(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Runs fn(iters) batches, growing iters until the batch takes at least
/// min_time_s, then times the full-size batch three times and reports
/// per-op time from the fastest repetition (and per-op allocations from
/// the first): the minimum is far less sensitive to frequency-scaling
/// and scheduler jitter than a single sample, which matters for the
/// ratio gates on ~20 ns ops.
template <typename F>
BenchResult run_bench(const std::string& name, double min_time_s, F&& fn) {
  std::uint64_t iters = 1;
  fn(1);  // warm-up: caches, lazy statics, workspace buffers
  for (;;) {
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    fn(iters);
    const auto t1 = Clock::now();
    const std::uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    double secs = elapsed_s(t0, t1);
    if (secs >= min_time_s || iters >= (1ull << 40)) {
      for (int rep = 0; rep < 2; ++rep) {
        const auto r0 = Clock::now();
        fn(iters);
        const auto r1 = Clock::now();
        secs = std::min(secs, elapsed_s(r0, r1));
      }
      BenchResult r;
      r.name = name;
      r.iterations = iters;
      r.ns_per_op = secs * 1e9 / static_cast<double>(iters);
      r.ops_per_sec = static_cast<double>(iters) / secs;
      r.allocs_per_op =
          static_cast<double>(allocs) / static_cast<double>(iters);
      return r;
    }
    // Aim directly for the target with 20% headroom, at least doubling.
    const double scale =
        secs > 0.0 ? 1.2 * min_time_s / secs : 2.0;
    iters = std::max(iters * 2,
                     static_cast<std::uint64_t>(
                         static_cast<double>(iters) * scale));
  }
}

// --- fixtures -------------------------------------------------------------

// Same architecture as TrainingOptions' default planner network, so the
// MLP numbers reflect the actual kappa_n hot path.
cvsafe::nn::Mlp make_test_net() {
  cvsafe::util::Rng rng(20240806);
  cvsafe::nn::MlpSpec spec;
  spec.layer_sizes = {4, 24, 24, 1};
  return cvsafe::nn::Mlp(spec, rng);
}

cvsafe::nn::Matrix random_matrix(std::size_t r, std::size_t c,
                                 cvsafe::util::Rng& rng) {
  cvsafe::nn::Matrix m(r, c);
  for (auto& x : m.data()) x = rng.uniform(-1.0, 1.0);
  return m;
}

/// Double-integrator step over the grid slice, the bench's black-box
/// system for the preimage operator.
std::pair<double, double> grid_step(double x, double v, double u) {
  const double dt = 0.1;
  return {x + v * dt + 0.5 * u * dt * dt, v + u * dt};
}

struct BandUnsafe {
  double lo = 0.4;
  double hi = 0.6;
  bool operator()(double x, double /*v*/) const { return x >= lo && x <= hi; }
};

// --- registry -------------------------------------------------------------

struct Bench {
  std::string name;
  std::function<BenchResult(const Options&)> run;
};

std::vector<Bench> build_registry() {
  using namespace cvsafe;
  std::vector<Bench> benches;

  benches.push_back({"matmul_dense_64_alloc", [](const Options& o) {
    util::Rng rng(1);
    const nn::Matrix a = random_matrix(64, 64, rng);
    const nn::Matrix b = random_matrix(64, 64, rng);
    return run_bench("matmul_dense_64_alloc", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         g_sink = a.matmul(b)(0, 0);
                       }
                     });
  }});

  benches.push_back({"matmul_dense_64_into", [](const Options& o) {
    util::Rng rng(1);
    const nn::Matrix a = random_matrix(64, 64, rng);
    const nn::Matrix b = random_matrix(64, 64, rng);
    nn::Matrix out;
    return run_bench("matmul_dense_64_into", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         nn::matmul_into(a, b, out);
                         g_sink = out(0, 0);
                       }
                     });
  }});

  benches.push_back({"matmul_transposed_64_into", [](const Options& o) {
    util::Rng rng(1);
    const nn::Matrix a = random_matrix(64, 64, rng);
    const nn::Matrix b = random_matrix(64, 64, rng);
    nn::Matrix out;
    return run_bench("matmul_transposed_64_into", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         nn::matmul_transposed_into(a, b, out);
                         g_sink = out(0, 0);
                       }
                     });
  }});

  // Matmul pair at a hidden layer's shape: 64 activation rows x 24
  // against a 24 x 24 weight matrix. Inference with fresh W^T caches runs
  // neither kernel (Mlp::forward_into's fused pass does); the transposed
  // kernel is the stale-cache inference path (after mutable_weights())
  // and Mlp::infer's, and the dense one serves Matrix::matmul and the
  // training step's dL/dx when the local gradient is mostly zero. The CI
  // gate keeps the transposed kernel at parity with the dense one at this
  // shape.
  benches.push_back({"matmul_dense_infer24", [](const Options& o) {
    util::Rng rng(1);
    const nn::Matrix a = random_matrix(64, 24, rng);
    const nn::Matrix b = random_matrix(24, 24, rng);
    nn::Matrix out;
    return run_bench("matmul_dense_infer24", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         nn::matmul_into(a, b, out);
                         g_sink = out(0, 0);
                       }
                     });
  }});

  benches.push_back({"matmul_transposed_infer24", [](const Options& o) {
    util::Rng rng(1);
    const nn::Matrix a = random_matrix(64, 24, rng);
    const nn::Matrix bt = random_matrix(24, 24, rng);
    nn::Matrix out;
    return run_bench("matmul_transposed_infer24", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         nn::matmul_transposed_into(a, bt, out);
                         g_sink = out(0, 0);
                       }
                     });
  }});

  benches.push_back({"mlp_forward_alloc", [](const Options& o) {
    const nn::Mlp net = make_test_net();
    const std::vector<double> x{-0.5, 0.6, 0.3, 0.7};
    return run_bench("mlp_forward_alloc", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         g_sink = net.predict(x)[0];
                       }
                     });
  }});

  benches.push_back({"mlp_forward_workspace", [](const Options& o) {
    const nn::Mlp net = make_test_net();
    const std::vector<double> x{-0.5, 0.6, 0.3, 0.7};
    nn::Workspace ws;
    return run_bench("mlp_forward_workspace", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         g_sink = net.predict_scalar(x, ws);
                       }
                     });
  }});

  benches.push_back({"mlp_forward_batch64", [](const Options& o) {
    const nn::Mlp net = make_test_net();
    util::Rng rng(7);
    nn::Workspace ws;
    nn::Matrix& in = ws.input(64, 4);
    for (auto& v : in.data()) v = rng.uniform(-1.0, 1.0);
    // One op = one 64-sample batch; divide ns_per_op by 64 for per-sample.
    return run_bench("mlp_forward_batch64", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         g_sink = net.forward_into(in, ws)(63, 0);
                       }
                     });
  }});

  benches.push_back({"train_step_batch128", [](const Options& o) {
    // One steady-state nn::train step on kappa_n's shape and batch: forward
    // pass, MSE gradient, backward pass, Adam update and W^T refresh. The
    // warm-up step sizes the storage and Adam's moments; later steps must
    // not allocate.
    nn::Mlp net = make_test_net();
    util::Rng rng(11);
    const nn::Matrix x = random_matrix(128, 4, rng);
    const nn::Matrix t = random_matrix(128, 1, rng);
    nn::Adam opt(3e-3);
    nn::TrainStep step(net);
    return run_bench("train_step_batch128", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         g_sink = step.update(net, x, t, 0.0, opt);
                       }
                     });
  }});

  benches.push_back({"kalman_update", [](const Options& o) {
    filter::KalmanFilter kf({0.1, 1.0, 1.0, 1.0, 3.0, 64});
    util::Rng rng(1);
    double t = 0.0;
    return run_bench("kalman_update", o.min_time_s, [&](std::uint64_t n) {
      for (std::uint64_t it = 0; it < n; ++it) {
        sensing::SensorReading r{t, -50.0 + 9.0 * t + rng.uniform(-1.0, 1.0),
                                 9.0 + rng.uniform(-1.0, 1.0),
                                 rng.uniform(-1.0, 1.0)};
        kf.update(r);
        g_sink = kf.state_at(t).x;
        t += 0.1;
      }
    });
  }});

  benches.push_back({"reachability_propagate", [](const Options& o) {
    const vehicle::VehicleLimits limits{2.0, 15.0, -3.0, 3.0};
    const auto bounds = filter::StateBounds::exact(0.0, -50.0, 9.0);
    double dt = 0.05;
    return run_bench("reachability_propagate", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         g_sink = filter::propagate(bounds, dt, limits).p.lo;
                         dt = dt < 3.0 ? dt + 0.05 : 0.05;
                       }
                     });
  }});

  benches.push_back({"boundary_grid_serial", [](const Options& o) {
    core::PreimageGrid grid;
    grid.nx = o.grid;
    grid.nv = o.grid;
    const auto controls = core::sample_controls(-3.0, 3.0, 8);
    const core::StepFn step = grid_step;
    const core::UnsafeFn unsafe = BandUnsafe{};
    return run_bench(
        "boundary_grid_serial", o.min_time_s, [&](std::uint64_t n) {
          for (std::uint64_t it = 0; it < n; ++it) {
            const auto res =
                core::compute_boundary_grid(grid, step, unsafe, controls);
            g_sink = static_cast<double>(res.count(core::RegionLabel::kBoundary));
          }
        });
  }});

  benches.push_back({"boundary_grid_parallel", [](const Options& o) {
    core::PreimageGrid grid;
    grid.nx = o.grid;
    grid.nv = o.grid;
    const auto controls = core::sample_controls(-3.0, 3.0, 8);
    const core::StepFn step = grid_step;
    const core::UnsafeFn unsafe = BandUnsafe{};
    return run_bench(
        "boundary_grid_parallel", o.min_time_s, [&](std::uint64_t n) {
          for (std::uint64_t it = 0; it < n; ++it) {
            const auto res = core::compute_boundary_grid_parallel(
                grid, step, unsafe, controls, o.grid_threads);
            g_sink = static_cast<double>(res.count(core::RegionLabel::kBoundary));
          }
        });
  }});

  benches.push_back({"boundary_grid_memoized_full", [](const Options& o) {
    core::PreimageGrid grid;
    grid.nx = o.grid;
    grid.nv = o.grid;
    core::IncrementalBoundaryGrid inc(grid, grid_step,
                                      core::sample_controls(-3.0, 3.0, 8));
    const core::UnsafeFn unsafe = BandUnsafe{};
    return run_bench(
        "boundary_grid_memoized_full", o.min_time_s, [&](std::uint64_t n) {
          for (std::uint64_t it = 0; it < n; ++it) {
            const auto& res = inc.relabel(unsafe);
            g_sink = static_cast<double>(res.count(core::RegionLabel::kBoundary));
          }
        });
  }});

  benches.push_back({"boundary_grid_incremental", [](const Options& o) {
    core::PreimageGrid grid;
    grid.nx = o.grid;
    grid.nv = o.grid;
    core::IncrementalBoundaryGrid inc(grid, grid_step,
                                      core::sample_controls(-3.0, 3.0, 8));
    BandUnsafe band;
    inc.relabel(core::UnsafeFn(band));  // prime
    double phase = 0.0;
    // Per step the unsafe band drifts by ~one cell, the Eq.-8 common case:
    // relabel only the footprint-intersecting sliver.
    return run_bench(
        "boundary_grid_incremental", o.min_time_s, [&](std::uint64_t n) {
          for (std::uint64_t it = 0; it < n; ++it) {
            const BandUnsafe old_band = band;
            phase += 0.002;
            if (phase > 0.2) phase = 0.0;
            band.lo = 0.4 + phase;
            band.hi = 0.6 + phase;
            const core::ChangedRegion changed{
                std::min(old_band.lo, band.lo), std::max(old_band.hi, band.hi),
                grid.v_min, grid.v_max};
            const auto& res = inc.relabel(core::UnsafeFn(band), changed);
            g_sink = static_cast<double>(res.count(core::RegionLabel::kBoundary));
          }
        });
  }});

  // One op = one control step of a V2V channel: offer the current
  // snapshot, drain due messages. channel_plain is the undecorated
  // baseline; channel_faulty_nofault is the FaultyChannel decorator with
  // every fault disabled — measured at parity (~1.0x dev, min-of-3
  // batches). Even with the min, the ratio of two ~20 ns ops swings
  // roughly 0.85-1.15x run to run, so CI gates at 0.75: a guard against
  // gross dispatch pessimization (lost inlining, per-message copies),
  // not a 10%-level perf pin. Behavioral parity is gated exactly by
  // fault_injection_test's bit-identical pass-through check.
  benches.push_back({"channel_plain", [](const Options& o) {
    comm::Channel ch(comm::CommConfig::delayed(0.1, 0.25));
    util::Rng rng(1);
    double t = 0.0;
    return run_bench("channel_plain", o.min_time_s, [&](std::uint64_t n) {
      for (std::uint64_t it = 0; it < n; ++it) {
        const vehicle::VehicleSnapshot snap{t, {-50.0 + 9.0 * t, 9.0}, 0.3};
        ch.offer(comm::Message{1, snap}, rng);
        // Drain in batches: the collect() vector churn would otherwise
        // drown the offer dispatch the overhead gate compares.
        if ((it & 63u) == 0u) {
          g_sink = static_cast<double>(ch.collect(t).size());
        }
        t += 0.05;
      }
    });
  }});

  benches.push_back({"channel_faulty_nofault", [](const Options& o) {
    fault::FaultyChannel ch(comm::CommConfig::delayed(0.1, 0.25),
                            fault::ChannelFaultModel{}, 42);
    util::Rng rng(1);
    double t = 0.0;
    return run_bench("channel_faulty_nofault", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         const vehicle::VehicleSnapshot snap{
                             t, {-50.0 + 9.0 * t, 9.0}, 0.3};
                         ch.offer(comm::Message{1, snap}, rng);
                         if ((it & 63u) == 0u) {
                           g_sink =
                               static_cast<double>(ch.collect(t).size());
                         }
                         t += 0.05;
                       }
                     });
  }});

  benches.push_back({"channel_faulty_active", [](const Options& o) {
    const fault::FaultPlan plan = fault::FaultPlan::corruption();
    fault::FaultyChannel ch(comm::CommConfig::delayed(0.1, 0.25),
                            plan.channel, 42);
    util::Rng rng(1);
    double t = 0.0;
    return run_bench("channel_faulty_active", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         const vehicle::VehicleSnapshot snap{
                             t, {-50.0 + 9.0 * t, 9.0}, 0.3};
                         ch.offer(comm::Message{1, snap}, rng);
                         if ((it & 63u) == 0u) {
                           g_sink =
                               static_cast<double>(ch.collect(t).size());
                         }
                         t += 0.05;
                       }
                     });
  }});

  // One op = one compound-planner step with the degradation ladder armed
  // and signals sweeping across every rung threshold (the ladder-update +
  // monitor-gate hot path of a faulted episode).
  benches.push_back({"compound_step_degradation", [](const Options& o) {
    const auto cfg = sim::LeftTurnSimConfig::paper_defaults();
    const auto scn = cfg.make_scenario();
    auto inner = std::make_shared<planners::ExpertPlanner>(
        scn, planners::ExpertParams::conservative(), "expert");
    auto model = std::make_shared<scenario::LeftTurnSafetyModel>(scn);
    core::CompoundPlanner<scenario::LeftTurnWorld> compound(
        std::move(inner), std::move(model));
    compound.enable_degradation(core::LadderConfig{});
    scenario::LeftTurnWorld world;
    world.t = 1.0;
    world.ego = vehicle::VehicleState{cfg.geometry.ego_start, 8.0};
    world.tau1_monitor = util::Interval{5.0, 8.0};
    world.tau1_nn = world.tau1_monitor;
    double age = 0.0;
    return run_bench(
        "compound_step_degradation", o.min_time_s, [&](std::uint64_t n) {
          for (std::uint64_t it = 0; it < n; ++it) {
            core::DegradationSignals signals;
            signals.have_message = true;
            signals.message_age = age;
            signals.filter_consistent = (it & 63u) != 0;
            compound.note_signals(signals);
            g_sink = compound.plan(world);
            age = age < 1.2 ? age + 0.05 : 0.0;
          }
        });
  }});

  // One op = one compound-planner step with no observability attached:
  // the untraced baseline the tracing-overhead gate compares against.
  benches.push_back({"compound_step", [](const Options& o) {
    const auto cfg = sim::LeftTurnSimConfig::paper_defaults();
    const auto scn = cfg.make_scenario();
    auto inner = std::make_shared<planners::ExpertPlanner>(
        scn, planners::ExpertParams::conservative(), "expert");
    auto model = std::make_shared<scenario::LeftTurnSafetyModel>(scn);
    core::CompoundPlanner<scenario::LeftTurnWorld> compound(
        std::move(inner), std::move(model));
    compound.enable_degradation(core::LadderConfig{});
    scenario::LeftTurnWorld world;
    world.t = 1.0;
    world.ego = vehicle::VehicleState{cfg.geometry.ego_start, 8.0};
    world.tau1_monitor = util::Interval{5.0, 8.0};
    world.tau1_nn = world.tau1_monitor;
    double age = 0.0;
    return run_bench("compound_step", o.min_time_s, [&](std::uint64_t n) {
      for (std::uint64_t it = 0; it < n; ++it) {
        core::DegradationSignals signals;
        signals.have_message = true;
        signals.message_age = age;
        signals.filter_consistent = (it & 63u) != 0;
        compound.note_signals(signals);
        g_sink = compound.plan(world);
        age = age < 1.2 ? age + 0.05 : 0.0;
      }
    });
  }});

  // Same fixture with a *disabled* recorder mounted: the null-sink fast
  // path whose cost the CI gate bounds at <= 5% of compound_step.
  benches.push_back({"compound_step_traced_off", [](const Options& o) {
    const auto cfg = sim::LeftTurnSimConfig::paper_defaults();
    const auto scn = cfg.make_scenario();
    auto inner = std::make_shared<planners::ExpertPlanner>(
        scn, planners::ExpertParams::conservative(), "expert");
    auto model = std::make_shared<scenario::LeftTurnSafetyModel>(scn);
    core::CompoundPlanner<scenario::LeftTurnWorld> compound(
        std::move(inner), std::move(model));
    compound.enable_degradation(core::LadderConfig{});
    obs::Recorder recorder;  // default-disabled null sink
    compound.set_recorder(&recorder);
    scenario::LeftTurnWorld world;
    world.t = 1.0;
    world.ego = vehicle::VehicleState{cfg.geometry.ego_start, 8.0};
    world.tau1_monitor = util::Interval{5.0, 8.0};
    world.tau1_nn = world.tau1_monitor;
    double age = 0.0;
    return run_bench(
        "compound_step_traced_off", o.min_time_s, [&](std::uint64_t n) {
          for (std::uint64_t it = 0; it < n; ++it) {
            core::DegradationSignals signals;
            signals.have_message = true;
            signals.message_age = age;
            signals.filter_consistent = (it & 63u) != 0;
            compound.note_signals(signals);
            g_sink = compound.plan(world);
            age = age < 1.2 ? age + 0.05 : 0.0;
          }
        });
  }});

  // One op = one event emission into a disabled recorder (the per-call
  // floor of every instrumentation point when tracing is off).
  benches.push_back({"recorder_event_off", [](const Options& o) {
    obs::Recorder recorder;  // disabled: emits are runtime no-ops
    return run_bench(
        "recorder_event_off", o.min_time_s, [&](std::uint64_t n) {
          for (std::uint64_t it = 0; it < n; ++it) {
            recorder.begin_step(it);
            recorder.step(1.0, false, 2);
            if ((it & 1023u) == 0u) {
              g_sink = static_cast<double>(recorder.size());
            }
          }
        });
  }});

  // One op = one recorded event, with the JSONL serialization cost
  // amortized over 1024-event flushes (the traced-episode write path).
  benches.push_back({"recorder_event_jsonl", [](const Options& o) {
    obs::Recorder recorder;
    recorder.set_enabled(true);
    return run_bench(
        "recorder_event_jsonl", o.min_time_s, [&](std::uint64_t n) {
          for (std::uint64_t it = 0; it < n; ++it) {
            recorder.begin_step(it);
            recorder.step(1.0, (it & 63u) == 0u, 2);
            if (recorder.size() >= 1024) {
              std::ostringstream os;
              obs::write_flight_dump_jsonl(
                  os, obs::flight_dump(recorder, 0, 1, 1.0, false), "bench");
              g_sink = static_cast<double>(os.str().size());
              recorder.clear();
            }
          }
        });
  }});

  benches.push_back({"run_batch_episodes8", [](const Options& o) {
    const auto cfg = sim::LeftTurnSimConfig::paper_defaults();
    const auto bp = eval::make_nn_blueprint(
        cfg, planners::PlannerStyle::kConservative,
        eval::PlannerVariant::kUltimate);
    std::uint64_t seed = 1;
    return run_bench("run_batch_episodes8", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         const auto stats =
                             eval::run_batch(cfg, bp, 8, seed, 1);
                         g_sink = stats.mean_eta;
                         seed += 8;
                       }
                     });
  }});

  // The frozen pre-engine left-turn loop on the identical workload —
  // the baseline of the engine-overhead gate
  //   legacy_left_turn_episodes8 : run_batch_episodes8
  // in CI (per-step engine overhead must stay within a few percent).
  benches.push_back({"legacy_left_turn_episodes8", [](const Options& o) {
    const auto cfg = sim::LeftTurnSimConfig::paper_defaults();
    const auto bp = eval::make_nn_blueprint(
        cfg, planners::PlannerStyle::kConservative,
        eval::PlannerVariant::kUltimate);
    std::uint64_t seed = 1;
    return run_bench("legacy_left_turn_episodes8", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         double eta_sum = 0.0;
                         for (std::uint64_t i = 0; i < 8; ++i) {
                           eta_sum += cvsafe::legacy_ref::run_left_turn(
                                          cfg, bp, seed + i)
                                          .eta;
                         }
                         g_sink = eta_sum / 8.0;
                         seed += 8;
                       }
                     });
  }});

  // The fleet engine on the identical workload at three pool capacities,
  // at hardware concurrency (threads = 0) — the campaign deployment mode,
  // where work-stealing admission is the point. One op = 8 episodes
  // (comparable to run_batch_episodes8: 8-episode fleet calls pinned at
  // 1 thread); the whole batch runs as ONE fleet call so pool residency is
  // real — under the growth loop n reaches thousands of episodes and the
  // 8k pool keeps them all resident, the mega-batched planning regime.
  // CI gates (same binary, same host, so machine-independent):
  //   parallel-speedup run_batch_episodes8 -> fleet_pool8k_episodes8 >= 1
  //     (one wide call >= 8-episode calls per hardware thread; skipped on
  //     1-thread runners, where it degenerates to serial-vs-serial), and
  //   max-ratio fleet_pool64_episodes8 / run_batch_episodes8
  //     (bounds single-thread pooling overhead; bites on 1-thread
  //     runners where the parallel gate skips).
  // fleet_pool8k_episodes8 runs with the per-lane flight recorder ARMED
  // (an armed obs::Recorder in every lane; eta samples, gate verdicts
  // and message events stream into it each step) so the
  // speedup gates cover the observability-on deployment shape.
  // fleet_pool8k_telemetry_off is the identical workload untraced; CI
  // bounds the recorder overhead with
  //   speedup fleet_pool8k_telemetry_off -> fleet_pool8k_episodes8
  //     >= 0.95 (armed throughput within 5% of untraced).
  struct PoolBench {
    std::size_t pool_cap;
    bool armed;
    const char* name;
  };
  constexpr PoolBench kPoolBenches[] = {
      {64, false, "fleet_pool64_episodes8"},
      {1024, false, "fleet_pool1k_episodes8"},
      {8192, true, "fleet_pool8k_episodes8"},
      {8192, false, "fleet_pool8k_telemetry_off"},
  };
  for (const PoolBench& pb : kPoolBenches) {
    const std::string name = pb.name;
    const std::size_t pool_cap = pb.pool_cap;
    const bool armed = pb.armed;
    benches.push_back({name, [name, pool_cap, armed](const Options& o) {
      const auto cfg = sim::LeftTurnSimConfig::paper_defaults();
      const auto bp = eval::make_nn_blueprint(
          cfg, planners::PlannerStyle::kConservative,
          eval::PlannerVariant::kUltimate);
      obs::FlightDumpCollector dumps;
      sim::FleetObsSinks sinks;
      if (armed) sinks.dumps = &dumps;
      std::uint64_t seed = 1;
      sim::FleetConfig fleet;
      fleet.pool_capacity = pool_cap;
      return run_bench(name, o.min_time_s, [&](std::uint64_t n) {
        const auto result =
            sim::run_left_turn_fleet(cfg, bp, 8 * n, seed, fleet, sinks);
        g_sink = result.stats.mean_eta;
        seed += 8 * n;
      });
    }});
  }

  // One op = one steady-state production shard-step over 64 resident
  // lanes: EpisodePool::step_cohort, as run_fleet_worker runs it, each
  // lane observing through its own stack, plus the (empty) retire scan. No lane finishes
  // during measurement, so this is the per-step cost the fleet engine
  // pays forever; CI gates it zero-alloc (an allocation here multiplies
  // by pool x steps). The _armed variant arms every lane's flight
  // recorder: the emit path runs for real but never dumps, and must stay
  // plain stores into rings preallocated at pool construction.
  for (const bool armed : {false, true}) {
    const std::string name =
        armed ? "fleet_steady_step_armed" : "fleet_steady_step";
    benches.push_back({name, [name, armed](const Options& o) {
      auto cfg = sim::LeftTurnSimConfig::paper_defaults();
      // 80k steps of runway: enough for the growth loop + 3 reps at any
      // sane --min-time; lanes never retire (target unreachable at 15 m/s
      // x 4000 s) so the only allocations possible are warm-up growth.
      cfg.horizon = 4000.0;
      cfg.geometry.ego_target = 1.0e6;
      const auto bp = eval::make_nn_blueprint(
          cfg, planners::PlannerStyle::kConservative,
          eval::PlannerVariant::kUltimate);
      const sim::LeftTurnAdapter adapter(cfg, bp);
      std::atomic<std::size_t> next{0};
      std::vector<sim::RunResult> records(4096);
      obs::FlightDumpCollector dumps;
      sim::EpisodePool<scenario::LeftTurnWorld> pool(
          adapter, 64, 1, sim::SeedPolicy::kPaired, next, records.size(),
          nullptr, armed ? &dumps : nullptr, obs::FlightRecorderConfig{});
      planners::NnPlanner planner(bp.net, planners::InputEncoding{}, "nn");
      const sim::FleetBatchPlanner<scenario::LeftTurnWorld> batch_plan =
          [&planner](std::span<const scenario::LeftTurnWorld> worlds,
                     std::span<double> out) {
            planner.plan_batch(worlds, out);
          };
      const auto shard_step = [&] {
        pool.step_cohort(0, pool.active(), batch_plan);
        pool.retire_and_refill(records);
        g_sink = pool.accel(0);
      };
      // Pre-warm past every one-time capacity growth (vector capacities,
      // in-flight message queues, workspace tiles): measured, the last warm-up allocation happens before
      // step ~70; 512 steps of margin keep the zero-alloc gate
      // deterministic at any --min-time.
      for (int i = 0; i < 512; ++i) shard_step();
      return run_bench(name, o.min_time_s, [&](std::uint64_t n) {
        for (std::uint64_t it = 0; it < n; ++it) shard_step();
      });
    }});
  }

  // One op = one CMA-ES ask + synthetic-score + tell round at the
  // adversarial ParamSpace dimensionality (Cholesky factorization,
  // lambda x dim sampling, selection, paths and rank-mu covariance
  // update). Gated zero-alloc in CI: every buffer is sized in the
  // optimizer's constructor, so a regression here would tax every
  // candidate batch of every attack.
  benches.push_back({"adv_search_step", [](const Options& o) {
    adv::CmaEs opt(adv::ParamSpace::kDim, /*seed=*/7);
    const std::size_t dim = opt.dim();
    const std::size_t pop = opt.population();
    std::vector<double> xs(pop * dim);
    std::vector<double> scores(pop);
    std::size_t iteration = 0;
    const auto step = [&] {
      opt.ask(iteration, xs);
      for (std::size_t c = 0; c < pop; ++c) {
        double s = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
          const double v = xs[c * dim + d] - 0.3;
          s += v * v;
        }
        scores[c] = s;
      }
      opt.tell(iteration, xs, scores);
      ++iteration;
      g_sink = opt.best_score();
    };
    for (int i = 0; i < 8; ++i) step();  // past any one-time warm-up
    return run_bench("adv_search_step", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) step();
                     });
  }});

  // One op = one outward-rounded interval forward pass over a unit box
  // through the planner-sized net, reusing the IntervalWorkspace — the
  // inner loop of the sound NN-bounds prover. Gated zero-alloc in CI:
  // an allocation regression here multiplies across every B&B leaf.
  benches.push_back({"nn_interval_forward", [](const Options& o) {
    const nn::Mlp net = make_test_net();
    std::array<util::Interval, 4> box{
        util::Interval{-0.6, -0.4}, util::Interval{0.5, 0.7},
        util::Interval{0.2, 0.4}, util::Interval{0.6, 0.8}};
    nn::IntervalWorkspace iws;
    return run_bench("nn_interval_forward", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         g_sink = nn::interval_predict_scalar(net, box, iws).lo;
                       }
                     });
  }});

  // One op = one full Eq. 4 branch-and-bound certification of the paper
  // scenario (single-threaded so ns/op tracks prover arithmetic, not the
  // pool). Tracks the end-to-end cost of the safety half of `certify`.
  benches.push_back({"bnb_certify_smoke", [](const Options& o) {
    const scenario::LeftTurnScenario scn(
        scenario::LeftTurnGeometry{}, {0.0, 15.0, -6.0, 3.0},
        {2.0, 15.0, -3.0, 3.0}, 0.05);
    verify::SoundBnbOptions options;
    options.threads = 1;
    return run_bench("bnb_certify_smoke", o.min_time_s,
                     [&](std::uint64_t n) {
                       for (std::uint64_t it = 0; it < n; ++it) {
                         const auto res = verify::certify_eq4_sound(scn, options);
                         g_sink = static_cast<double>(res.leaves.size());
                       }
                     });
  }});

  return benches;
}

// --- output ---------------------------------------------------------------

void write_json(const Options& opt, const std::vector<BenchResult>& results) {
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cvsafe_bench: cannot open %s for writing\n",
                 opt.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"cvsafe-bench-v1\",\n");
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"min_time_s\": %g,\n", opt.min_time_s);
  std::fprintf(f, "    \"grid\": %zu,\n", opt.grid);
  std::fprintf(f, "    \"grid_threads\": %zu,\n", opt.grid_threads);
  std::fprintf(f, "    \"hardware_threads\": %u\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                 "\"ops_per_sec\": %.1f, \"allocs_per_op\": %.3f, "
                 "\"iterations\": %llu}%s\n",
                 r.name.c_str(), r.ns_per_op, r.ops_per_sec, r.allocs_per_op,
                 static_cast<unsigned long long>(r.iterations),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--out FILE] [--filter SUBSTR] [--min-time SECONDS]\n"
      "          [--grid N] [--grid-threads N] [--list]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--filter") {
      opt.filter = next();
    } else if (arg == "--min-time") {
      opt.min_time_s = std::atof(next());
    } else if (arg == "--grid") {
      opt.grid = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--grid-threads") {
      opt.grid_threads = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--list") {
      opt.list = true;
    } else {
      return usage(argv[0]);
    }
  }

  const auto registry = build_registry();
  if (opt.list) {
    for (const auto& b : registry) std::printf("%s\n", b.name.c_str());
    return 0;
  }

  std::vector<BenchResult> results;
  for (const auto& b : registry) {
    if (!opt.filter.empty() &&
        b.name.find(opt.filter) == std::string::npos) {
      continue;
    }
    std::fprintf(stderr, "running %-32s ", b.name.c_str());
    const BenchResult r = b.run(opt);
    std::fprintf(stderr, "%12.1f ns/op %10.3f allocs/op (%llu iters)\n",
                 r.ns_per_op, r.allocs_per_op,
                 static_cast<unsigned long long>(r.iterations));
    results.push_back(r);
  }
  write_json(opt, results);
  std::fprintf(stderr, "wrote %s\n", opt.out.c_str());
  return 0;
}
