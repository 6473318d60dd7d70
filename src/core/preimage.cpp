#include "cvsafe/core/preimage.hpp"

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::core {

namespace {

/// Labels one cell: unsafe first, then controls in order with early exit
/// on the first unsafe successor.
RegionLabel label_one(double x, double v, const StepFn& step,
                      const UnsafeFn& unsafe,
                      const std::vector<double>& controls) {
  if (unsafe(x, v)) return RegionLabel::kUnsafe;
  for (const double u : controls) {
    const auto [xn, vn] = step(x, v, u);
    if (unsafe(xn, vn)) return RegionLabel::kBoundary;
  }
  return RegionLabel::kSafe;
}

}  // namespace

std::vector<double> sample_controls(double u_min, double u_max,
                                    std::size_t count) {
  CVSAFE_EXPECTS(count >= 2, "control sampling needs at least 2 points");
  CVSAFE_EXPECTS(u_min <= u_max, "control range must be ordered");
  std::vector<double> controls;
  controls.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    controls.push_back(u_min + (u_max - u_min) * static_cast<double>(i) /
                                   static_cast<double>(count - 1));
  }
  return controls;
}

PreimageResult compute_boundary_grid(const PreimageGrid& grid,
                                     const StepFn& step,
                                     const UnsafeFn& unsafe,
                                     const std::vector<double>& controls) {
  CVSAFE_EXPECTS(!controls.empty(), "boundary grid needs control samples");
  CVSAFE_EXPECTS(grid.nx > 0 && grid.nv > 0, "preimage grid must be non-empty");
  CVSAFE_EXPECTS(step != nullptr && unsafe != nullptr,
                 "step and unsafe predicates must be callable");
  PreimageResult result;
  result.grid = grid;
  result.labels.assign(grid.nx * grid.nv, RegionLabel::kSafe);
  for (std::size_t j = 0; j < grid.nv; ++j) {
    for (std::size_t i = 0; i < grid.nx; ++i) {
      result.labels[j * grid.nx + i] =
          label_one(grid.x_at(i), grid.v_at(j), step, unsafe, controls);
    }
  }
  return result;
}

}  // namespace cvsafe::core
