// Concurrency stress for parallel_for / run_batch. These tests exist
// primarily to run under the `tsan` and `asan-ubsan` presets
// (docs/STATIC_ANALYSIS.md): they drive parallel_for, nested and flat, and
// the parallel batch evaluation that the experiment harness relies on,
// with enough tasks and iterations that a racy implementation is flagged
// deterministically.

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
  // Each outer worker starts its own inner workers: nested transient
  // threads, joined inside the outer body.
  std::atomic<std::size_t> total{0};
  parallel_for(
      8,
      [&total](std::size_t) {
        parallel_for(
            64, [&total](std::size_t) { total.fetch_add(1); }, 2);
      },
      2);
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
