// Concurrency stress for ThreadPool / parallel_for / run_batch. These
// tests exist primarily to run under the `tsan` and `asan-ubsan` presets
// (docs/STATIC_ANALYSIS.md): they drive the exact submit / wait_idle /
// shutdown interleavings and the parallel batch evaluation that the
// experiment harness relies on, with enough tasks and iterations that a
// racy implementation is flagged deterministically.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#include "cvsafe/eval/batch.hpp"
#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/util/thread_pool.hpp"

namespace cvsafe::util {
namespace {

TEST(ThreadPoolStress, ManyTasksSingleWaiter) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<std::size_t> counter{0};
  constexpr std::size_t kTasks = 2000;
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolStress, RepeatedWaitIdleRounds) {
  ThreadPool pool(3);
  std::atomic<std::size_t> counter{0};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), static_cast<std::size_t>(40 * (round + 1)));
  }
}

TEST(ThreadPoolStress, ConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<std::size_t> counter{0};
  constexpr std::size_t kSubmitters = 6;
  constexpr std::size_t kPerSubmitter = 500;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (std::size_t i = 0; i < kPerSubmitter; ++i) {
        pool.submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kSubmitters * kPerSubmitter);
}

TEST(ThreadPoolStress, DestructorDrainsPendingTasks) {
  std::atomic<std::size_t> counter{0};
  constexpr std::size_t kTasks = 300;
  {
    ThreadPool pool(2);
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait_idle: the destructor must drain the queue before joining.
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolStress, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  parallel_for(
      kN, [&hits](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolStress, NestedParallelForFromPoolTasks) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int outer = 0; outer < 8; ++outer) {
    pool.submit([&total] {
      parallel_for(
          64, [&total](std::size_t) { total.fetch_add(1); }, 2);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(total.load(), 8u * 64u);
}

// The batch runner runs on the fleet engine: its workers claim episodes
// from a shared atomic counter and each writes a distinct record slot
// while sharing the blueprint and config read-only. Parallel execution
// must be bit-identical to serial (each episode owns a PRNG stream
// seeded by its index).
TEST(BatchStress, ParallelMatchesSerialBitExact) {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.horizon = 10.0;
  sim::AgentBlueprint bp;
  bp.name = "expert";
  bp.scenario = config.make_scenario();
  bp.net = nullptr;
  bp.sensor = config.sensor;
  sim::AgentConfig ac = sim::AgentConfig::basic_compound();
  ac.use_expert_planner = true;
  bp.config = ac;

  const auto serial = eval::run_batch(config, bp, 24, /*base_seed=*/7,
                                      /*threads=*/1);
  const auto parallel = eval::run_batch(config, bp, 24, /*base_seed=*/7,
                                        /*threads=*/4);
  EXPECT_EQ(serial.n, parallel.n);
  EXPECT_EQ(serial.safe_count, parallel.safe_count);
  EXPECT_EQ(serial.reached_count, parallel.reached_count);
  EXPECT_EQ(serial.total_steps, parallel.total_steps);
  EXPECT_EQ(serial.emergency_steps, parallel.emergency_steps);
  ASSERT_EQ(serial.etas.size(), parallel.etas.size());
  for (std::size_t i = 0; i < serial.etas.size(); ++i) {
    ASSERT_EQ(serial.etas[i], parallel.etas[i]) << "episode " << i;
  }
}

TEST(BatchStress, ConcurrentIndependentBatches) {
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.horizon = 8.0;
  sim::AgentBlueprint bp;
  bp.name = "expert";
  bp.scenario = config.make_scenario();
  bp.net = nullptr;
  bp.sensor = config.sensor;
  sim::AgentConfig ac = sim::AgentConfig::basic_compound();
  ac.use_expert_planner = true;
  bp.config = ac;

  std::vector<sim::BatchStats> stats(3);
  std::vector<std::thread> runners;
  runners.reserve(stats.size());
  for (std::size_t r = 0; r < stats.size(); ++r) {
    runners.emplace_back([&config, &bp, &stats, r] {
      stats[r] = eval::run_batch(config, bp, 8, /*base_seed=*/1, /*threads=*/2);
    });
  }
  for (auto& t : runners) t.join();
  for (std::size_t r = 1; r < stats.size(); ++r) {
    EXPECT_EQ(stats[0].safe_count, stats[r].safe_count);
    EXPECT_EQ(stats[0].total_steps, stats[r].total_steps);
    EXPECT_EQ(stats[0].etas, stats[r].etas);
  }
}

}  // namespace
}  // namespace cvsafe::util
