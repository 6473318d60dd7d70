#include "cvsafe/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::util {

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t num_threads) {
  CVSAFE_EXPECTS(n == 0 || body != nullptr,
                 "parallel_for needs a callable body");
  CVSAFE_EXPECTS(num_threads <= kMaxWorkerThreads,
                 "parallel_for: at most kMaxWorkerThreads worker threads");
  if (n == 0) return;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, n);
  if (num_threads <= 1 || n < 4) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace cvsafe::util
