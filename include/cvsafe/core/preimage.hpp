#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "cvsafe/util/contracts.hpp"

/// \file preimage.hpp
/// Generic one-step preimage computation — Eq. 3 as an operator.
///
/// The boundary safe set is defined for ANY discrete-time system as the
/// set of safe states from which some feasible control reaches the unsafe
/// set within one control step. For the case studies we use closed forms;
/// this grid operator evaluates the definition directly for an arbitrary
/// black-box system over a 2-D state slice, which is useful to
/// *visualize* a scenario's boundary set and to sanity-check hand-derived
/// closed forms on simple systems (see tests/core_preimage_test.cpp).
///
/// Note on semantics: the exact preimage flags every state that can touch
/// X_u in one step. A production monitor such as the left-turn scenario's
/// deliberately deviates for committed states (it guards *collisions* via
/// resolvability rather than Eq.-6 set entry), so the two are not
/// expected to coincide there; on the slack-band branch they agree.

namespace cvsafe::core {

/// A rectangular grid over a 2-D state slice (x, v).
struct PreimageGrid {
  double x_min = 0.0, x_max = 1.0;
  double v_min = 0.0, v_max = 1.0;
  std::size_t nx = 64;
  std::size_t nv = 64;

  double x_at(std::size_t i) const {
    return nx < 2 ? x_min
                  : x_min + (x_max - x_min) * static_cast<double>(i) /
                        static_cast<double>(nx - 1);
  }
  double v_at(std::size_t j) const {
    return nv < 2 ? v_min
                  : v_min + (v_max - v_min) * static_cast<double>(j) /
                        static_cast<double>(nv - 1);
  }
};

/// Classification of each grid state.
enum class RegionLabel : unsigned char {
  kSafe = 0,      ///< neither unsafe nor one step from it
  kBoundary = 1,  ///< safe but one sampled control reaches X_u
  kUnsafe = 2,    ///< already in X_u
};

/// Result of a preimage sweep.
struct PreimageResult {
  PreimageGrid grid;
  std::vector<RegionLabel> labels;  ///< row-major: j * nx + i

  RegionLabel at(std::size_t i, std::size_t j) const {
    CVSAFE_EXPECTS(i < grid.nx && j < grid.nv, "grid index out of range");
    return labels[j * grid.nx + i];
  }
  std::size_t count(RegionLabel label) const {
    std::size_t n = 0;
    for (const auto l : labels) n += (l == label) ? 1 : 0;
    return n;
  }
};

/// One-step dynamics of the black-box system: (x, v, control) -> (x, v).
using StepFn =
    std::function<std::pair<double, double>(double x, double v, double u)>;

/// Unsafe-set membership over the slice.
using UnsafeFn = std::function<bool(double x, double v)>;

/// Sweeps the grid: each state is labeled kUnsafe if unsafe(x, v),
/// kBoundary if safe but some control in \p controls leads to an unsafe
/// state in one step, kSafe otherwise.
PreimageResult compute_boundary_grid(const PreimageGrid& grid,
                                     const StepFn& step,
                                     const UnsafeFn& unsafe,
                                     const std::vector<double>& controls);

/// Uniformly spaced control samples in [u_min, u_max].
std::vector<double> sample_controls(double u_min, double u_max,
                                    std::size_t count);

}  // namespace cvsafe::core
