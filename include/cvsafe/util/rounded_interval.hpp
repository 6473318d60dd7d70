#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/interval.hpp"

/// \file rounded_interval.hpp
/// Outward-rounded (directed) interval arithmetic.
///
/// The plain Interval operations in interval.hpp evaluate endpoint
/// expressions in round-to-nearest, so a computed interval can *shave* up
/// to half an ulp off the true real-arithmetic range per operation. For
/// estimation and simulation that is irrelevant; for the sound verifier
/// (verify/sound.hpp) it is fatal — a certificate whose bounds are half an
/// ulp too tight is not a proof.
///
/// This header provides the directed ops the certifier is built from.
/// Every operation returns an interval that is a superset of the exact
/// real-arithmetic image, implemented by taking one `std::nextafter` step
/// outward per endpoint operation (prev/next below, which compute that
/// step on the bit pattern). Soundness argument: IEEE-754
/// round-to-nearest returns a value within half an ulp of the exact
/// result, so one full ulp step down (up) from the rounded value is a
/// guaranteed lower (upper) bound. This over-rounds by ~half an ulp per
/// op — negligible slack, bought with no dependence on the FP environment
/// (no fesetround, so the ops are safe under any prevailing rounding mode
/// that is at least faithful, and under compilers that reorder FP ops
/// within round-to-nearest).
///
/// The same construction is mirrored in scripts/check_certificate.py via
/// math.nextafter, which lets the independent checker reproduce every
/// endpoint bit-for-bit.
///
/// Containment extends to *floating-point* evaluations as well: a concrete
/// round-to-nearest (or fused) evaluation of the same expression DAG lands
/// between the directed endpoints, because each concrete op result lies
/// within the outward-rounded image of its argument enclosures. This is
/// what lets the interval MLP pass (nn/interval_mlp.hpp) enclose the
/// binary's actual `forward_into` outputs, not just the ideal real ones.
///
/// All functions treat empty intervals as absorbing (result empty) and
/// require finite or infinite — never NaN — inputs (Interval's invariant).

namespace cvsafe::util::rounded {

// prev and next return exactly what std::nextafter(x, -/+inf) returns,
// without the libm call: for a finite nonzero double, the neighbour one ulp
// away is the bit pattern one step away (the representation is ordered by
// magnitude within each sign, and the step across the largest finite
// value reaches inf). Both zeros step to the smallest subnormal of the
// step's sign; +/-inf at the far end and NaN come back unchanged.

/// Largest double strictly below \p x (identity on -inf and NaN).
inline double prev(double x) {
  if (!(x > -std::numeric_limits<double>::infinity())) return x;
  // Exact zero test: +0 and -0 alike. cvsafe-lint: allow(float-compare)
  if (x == 0.0) return -std::numeric_limits<double>::denorm_min();
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return std::bit_cast<double>(x > 0.0 ? bits - 1 : bits + 1);
}

/// Smallest double strictly above \p x (identity on +inf and NaN).
inline double next(double x) {
  if (!(x < std::numeric_limits<double>::infinity())) return x;
  // Exact zero test: +0 and -0 alike. cvsafe-lint: allow(float-compare)
  if (x == 0.0) return std::numeric_limits<double>::denorm_min();
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return std::bit_cast<double>(x > 0.0 ? bits + 1 : bits - 1);
}

/// x + y rounded toward -inf (one ulp step below round-to-nearest).
inline double add_down(double x, double y) { return prev(x + y); }
/// x + y rounded toward +inf.
inline double add_up(double x, double y) { return next(x + y); }
/// x - y rounded toward -inf.
inline double sub_down(double x, double y) { return prev(x - y); }
/// x - y rounded toward +inf.
inline double sub_up(double x, double y) { return next(x - y); }
/// x * y rounded toward -inf.
inline double mul_down(double x, double y) { return prev(x * y); }
/// x * y rounded toward +inf.
inline double mul_up(double x, double y) { return next(x * y); }
/// x / y rounded toward -inf.
inline double div_down(double x, double y) { return prev(x / y); }
/// x / y rounded toward +inf.
inline double div_up(double x, double y) { return next(x / y); }

/// [a] + [b] with outward rounding.
inline Interval add(const Interval& a, const Interval& b) {
  if (a.empty() || b.empty()) return Interval::empty_interval();
  return Interval{add_down(a.lo, b.lo), add_up(a.hi, b.hi)};
}

/// [a] - [b] with outward rounding.
inline Interval sub(const Interval& a, const Interval& b) {
  if (a.empty() || b.empty()) return Interval::empty_interval();
  return Interval{sub_down(a.lo, b.hi), sub_up(a.hi, b.lo)};
}

/// -[a] (exact; negation never rounds).
inline Interval neg(const Interval& a) {
  if (a.empty()) return Interval::empty_interval();
  return Interval{-a.hi, -a.lo};
}

/// [a] * [b] with outward rounding (four-corner rule).
inline Interval mul(const Interval& a, const Interval& b) {
  if (a.empty() || b.empty()) return Interval::empty_interval();
  const double c1 = a.lo * b.lo;
  const double c2 = a.lo * b.hi;
  const double c3 = a.hi * b.lo;
  const double c4 = a.hi * b.hi;
  const double lo = std::min(std::min(c1, c2), std::min(c3, c4));
  const double hi = std::max(std::max(c1, c2), std::max(c3, c4));
  return Interval{prev(lo), next(hi)};
}

/// [a] * s for a scalar s (sign-aware, outward rounding).
inline Interval scale(const Interval& a, double s) {
  if (a.empty()) return Interval::empty_interval();
  if (s >= 0.0) return Interval{mul_down(a.lo, s), mul_up(a.hi, s)};
  return Interval{mul_down(a.hi, s), mul_up(a.lo, s)};
}

/// [a] / s for a nonzero scalar s (sign-aware, outward rounding).
inline Interval div_scalar(const Interval& a, double s) {
  // Exact contract check on the divisor. cvsafe-lint: allow(float-compare)
  CVSAFE_EXPECTS(s != 0.0, "rounded::div_scalar needs a nonzero divisor");
  if (a.empty()) return Interval::empty_interval();
  if (s > 0.0) return Interval{div_down(a.lo, s), div_up(a.hi, s)};
  return Interval{div_down(a.hi, s), div_up(a.lo, s)};
}

/// [a]^2 with outward rounding (tighter than mul(a, a): range is >= 0).
inline Interval sqr(const Interval& a) {
  if (a.empty()) return Interval::empty_interval();
  const double m1 = a.lo * a.lo;
  const double m2 = a.hi * a.hi;
  if (a.lo >= 0.0) return Interval{prev(m1), next(m2)};
  if (a.hi <= 0.0) return Interval{prev(m2), next(m1)};
  return Interval{0.0, next(std::max(m1, m2))};
}

/// Enlarges [a] by \p ulps nextafter steps on each side. Used to turn an
/// approximately-computed endpoint plus a proven ulp error bound into a
/// rigorous enclosure (e.g. the fast_tanh inclusion function).
inline Interval widen_ulps(const Interval& a, int ulps) {
  CVSAFE_EXPECTS(ulps >= 0, "widen_ulps needs a non-negative step count");
  if (a.empty()) return Interval::empty_interval();
  Interval r = a;
  for (int i = 0; i < ulps; ++i) {
    r.lo = prev(r.lo);
    r.hi = next(r.hi);
  }
  return r;
}

/// max([a], [b]) elementwise on the endpoint lattice (exact).
inline Interval max(const Interval& a, const Interval& b) {
  if (a.empty() || b.empty()) return Interval::empty_interval();
  return Interval{std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

/// min([a], [b]) elementwise on the endpoint lattice (exact).
inline Interval min(const Interval& a, const Interval& b) {
  if (a.empty() || b.empty()) return Interval::empty_interval();
  return Interval{std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

/// clamp([a], lo, hi) — the image of std::clamp over the box (exact).
inline Interval clamp(const Interval& a, double lo, double hi) {
  CVSAFE_EXPECTS(lo <= hi, "rounded::clamp needs an ordered range");
  if (a.empty()) return Interval::empty_interval();
  return Interval{std::clamp(a.lo, lo, hi), std::clamp(a.hi, lo, hi)};
}

}  // namespace cvsafe::util::rounded
