#pragma once

#include <stdexcept>
#include <string>

/// \file contracts.hpp
/// Runtime contracts for the safety-critical chain.
///
/// The framework's value proposition is a *guarantee*: the compound planner
/// never lets the ego vehicle enter the unsafe set. That guarantee is only
/// as strong as the integrity of the monitor computing it — an empty
/// interval fed to a reachability step, a non-PSD covariance, or a
/// non-positive dt silently voids the proof. These macros make such
/// assumptions executable:
///
///   CVSAFE_EXPECTS(cond, "message")  — precondition at function entry
///   CVSAFE_ENSURES(cond, "message")  — postcondition before return
///   CVSAFE_ASSERT(cond, "message")   — internal invariant
///
/// The message argument is optional. Checks are active in every build type
/// (Release included — the guarantee matters most in production) unless the
/// translation unit is compiled with -DCVSAFE_NO_CONTRACTS, which compiles
/// every check out to an unevaluated `sizeof` with zero residual cost.
///
/// A violated contract aborts by default (printing kind, condition, file
/// and line to stderr). Tests — and hosts that prefer to contain failures —
/// can switch the process to throwing mode, in which violations raise
/// cvsafe::util::ContractViolation instead.

namespace cvsafe::util {

/// What a violated contract does to the process.
enum class ContractMode {
  kAbort,  ///< print diagnostics to stderr, then std::abort() (default)
  kThrow,  ///< throw ContractViolation (used by tests and embedding hosts)
};

/// Exception raised by violated contracts in ContractMode::kThrow.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// Current process-wide violation behaviour.
ContractMode contract_mode() noexcept;

/// Sets the process-wide violation behaviour; returns the previous mode.
ContractMode set_contract_mode(ContractMode mode) noexcept;

/// RAII guard restoring the previous contract mode (test helper).
class ScopedContractMode {
 public:
  explicit ScopedContractMode(ContractMode mode)
      : previous_(set_contract_mode(mode)) {}
  ~ScopedContractMode() { set_contract_mode(previous_); }
  ScopedContractMode(const ScopedContractMode&) = delete;
  ScopedContractMode& operator=(const ScopedContractMode&) = delete;

 private:
  ContractMode previous_;
};

namespace detail {

/// Reports a violated contract per the current ContractMode. Returns only
/// by throwing; marked non-returning for optimizer and analyzer benefit.
[[noreturn]] void contract_violation(const char* kind, const char* condition,
                                     const char* file, int line,
                                     const char* message);

}  // namespace detail

}  // namespace cvsafe::util

#if defined(CVSAFE_NO_CONTRACTS)

// The condition stays an unevaluated operand: it costs nothing at run time,
// but names used only by a contract still count as used, so compiling the
// checks out cannot trip -Wunused-variable / -Wunused-function.
#define CVSAFE_DETAIL_CONTRACT(kind, cond, ...) \
  static_cast<void>(sizeof((cond) ? 1 : 0))

#else

// `"" __VA_ARGS__` concatenates an optional string-literal message onto the
// empty string, so both CVSAFE_EXPECTS(c) and CVSAFE_EXPECTS(c, "m") work.
#define CVSAFE_DETAIL_CONTRACT(kind, cond, ...)                         \
  ((cond) ? static_cast<void>(0)                                        \
          : ::cvsafe::util::detail::contract_violation(                 \
                kind, #cond, __FILE__, __LINE__, "" __VA_ARGS__))

#endif

/// Precondition: what the caller must guarantee at entry.
#define CVSAFE_EXPECTS(cond, ...) \
  CVSAFE_DETAIL_CONTRACT("precondition", cond, __VA_ARGS__)

/// Postcondition: what the function guarantees before returning.
#define CVSAFE_ENSURES(cond, ...) \
  CVSAFE_DETAIL_CONTRACT("postcondition", cond, __VA_ARGS__)

/// Internal invariant that must hold mid-computation.
#define CVSAFE_ASSERT(cond, ...) \
  CVSAFE_DETAIL_CONTRACT("invariant", cond, __VA_ARGS__)
