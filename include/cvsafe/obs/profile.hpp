#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// \file profile.hpp
/// RAII profiling spans for the hot paths (NN plan/batch, filter
/// update, reachability, boundary grid), exported as Chrome trace-event
/// JSON loadable in Perfetto / chrome://tracing.
///
/// The profiler is process-global and off by default: a disabled span
/// costs one relaxed atomic load. Span names must be string literals
/// (the profiler stores the pointer, not a copy). Recording is
/// mutex-guarded and bounded; overflow is counted, never silent.

namespace cvsafe::obs {

struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  ///< steady-clock time since process start
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< dense per-thread id (first use order)
};

class Profiler {
 public:
  static constexpr std::size_t kMaxSpans = 1u << 20;

  static Profiler& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns);

  std::vector<SpanRecord> spans() const;
  std::size_t dropped() const;
  void clear();

  /// Chrome trace-event JSON ("X" complete events, microsecond
  /// timestamps), sorted by (start, tid, name) so output does not
  /// depend on recording interleaving.
  std::string chrome_trace_json() const;

  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  Profiler() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::size_t dropped_ = 0;
};

/// Times the enclosing scope when the profiler is enabled; a disabled
/// span is one relaxed load and two untaken branches.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Profiler::instance().enabled()) {
      name_ = name;
      start_ = Profiler::now_ns();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      Profiler::instance().record(name_, start_,
                                  Profiler::now_ns() - start_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace cvsafe::obs

#define CVSAFE_PROFILE_CONCAT2(a, b) a##b
#define CVSAFE_PROFILE_CONCAT(a, b) CVSAFE_PROFILE_CONCAT2(a, b)
#define CVSAFE_PROFILE_SPAN(name)                \
  ::cvsafe::obs::ScopedSpan CVSAFE_PROFILE_CONCAT(cvsafe_profile_span_, \
                                                  __LINE__)(name)
