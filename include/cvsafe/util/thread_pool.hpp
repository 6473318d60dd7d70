#pragma once

#include <cstddef>
#include <functional>

/// \file thread_pool.hpp
/// Worker threads: the bound on an explicit worker count and the
/// parallel_for helper.
///
/// The batch simulation runner executes tens of thousands of independent
/// simulations per experiment cell; each simulation carries its own PRNG
/// stream (seeded by index), so parallel execution is bit-reproducible
/// regardless of scheduling.

namespace cvsafe::util {

/// Most worker threads an explicit count may ask for (parallel_for,
/// sim::run_fleet_records, cvsafe_cli --threads). Each worker is one OS
/// thread started per call, so an unchecked count taken from a command
/// line could start thousands of them; 256 is far above the core count
/// of any host the project runs on.
inline constexpr std::size_t kMaxWorkerThreads = 256;

/// Runs body(i) for i in [0, n) on up to \p num_threads transient threads
/// (hardware concurrency when 0; an explicit count must not exceed
/// kMaxWorkerThreads, a contract). Falls back to serial execution when n
/// is small or one thread is asked for.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t num_threads = 0);

}  // namespace cvsafe::util
