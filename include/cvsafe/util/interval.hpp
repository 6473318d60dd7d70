#pragma once

#include <algorithm>
#include <cmath>
#include <iosfwd>

#include "cvsafe/util/contracts.hpp"

/// \file interval.hpp
/// Closed real interval arithmetic.
///
/// Intervals are the lingua franca of the framework: reachability analysis
/// produces position/velocity intervals, the Kalman filter produces
/// confidence intervals, the information filter intersects them, and the
/// passing-time-window estimates of the left-turn case study are intervals.

namespace cvsafe::util {

/// A closed interval [lo, hi]. An interval with lo > hi is *empty*.
///
/// Invariant: endpoints are never NaN. A NaN endpoint would read as
/// *non-empty* (NaN comparisons are false, so `lo > hi` fails) while
/// containing nothing, silently voiding every downstream safety check —
/// the constructor rejects it by contract. Infinite endpoints are fine.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  Interval() = default;

  /// Constructs [lo, hi] (empty when lo > hi). NaN endpoints violate the
  /// contract; every factory and operation below funnels through here.
  Interval(double lo_in, double hi_in) : lo(lo_in), hi(hi_in) {
    CVSAFE_EXPECTS(!std::isnan(lo) && !std::isnan(hi),
                   "interval endpoints must not be NaN");
  }

  /// The canonical empty interval.
  static Interval empty_interval() {
    return Interval{1.0, -1.0};
  }

  /// Interval containing a single point.
  static Interval point(double x) { return Interval{x, x}; }

  /// Interval [center - radius, center + radius]. Requires radius >= 0
  /// (so the result is never empty: a zero radius yields a point).
  static Interval centered(double center, double radius) {
    CVSAFE_EXPECTS(radius >= 0.0, "centered interval needs radius >= 0");
    return Interval{center - radius, center + radius};
  }

  /// The whole real line (up to double limits).
  static Interval everything();

  /// True iff the interval contains no points (lo > hi).
  bool empty() const { return lo > hi; }

  /// Width hi - lo. For empty intervals the width is defined as 0 — NOT
  /// the (negative) endpoint difference — so accumulating widths over a
  /// partition that contains empty cells stays monotone. Pinned by
  /// util_interval_test.cpp; the sound verifier's bisection termination
  /// test relies on it.
  double width() const { return empty() ? 0.0 : hi - lo; }

  /// Midpoint (lo + hi) / 2. Requires non-empty.
  double mid() const {
    CVSAFE_EXPECTS(!empty(), "midpoint of an empty interval");
    return 0.5 * (lo + hi);
  }

  /// True iff x lies in [lo, hi].
  bool contains(double x) const { return lo <= x && x <= hi; }

  /// True iff \p other is a subset of this interval (empty is subset of all).
  bool contains(const Interval& other) const {
    return other.empty() || (lo <= other.lo && other.hi <= hi);
  }

  /// True iff the two intervals share at least one point.
  bool intersects(const Interval& other) const {
    return !empty() && !other.empty() && lo <= other.hi && other.lo <= hi;
  }

  /// Set intersection; may be empty.
  Interval intersect(const Interval& other) const {
    if (empty() || other.empty()) return empty_interval();
    Interval r{std::max(lo, other.lo), std::min(hi, other.hi)};
    return r.empty() ? empty_interval() : r;
  }

  /// Smallest interval containing both (convex hull).
  Interval hull(const Interval& other) const {
    if (empty()) return other;
    if (other.empty()) return *this;
    return Interval{std::min(lo, other.lo), std::max(hi, other.hi)};
  }

  /// Interval shifted by a constant.
  Interval shifted(double dx) const {
    if (empty()) return empty_interval();
    return Interval{lo + dx, hi + dx};
  }

  /// Interval expanded by \p margin on both sides (margin >= 0).
  Interval inflated(double margin) const {
    CVSAFE_EXPECTS(margin >= 0.0, "inflate margin must be >= 0");
    if (empty()) return empty_interval();
    return Interval{lo - margin, hi + margin};
  }

  /// Clamps x into the interval. Requires non-empty. Written as
  /// min(max(x, lo), hi), which is std::clamp's value whenever lo <= hi
  /// (NaN and signed zeros included) and, unlike std::clamp, defined when
  /// a build without contracts reaches it with an empty interval.
  double clamp(double x) const {
    CVSAFE_EXPECTS(!empty(), "clamp against an empty interval");
    return std::min(std::max(x, lo), hi);
  }

  /// Minkowski sum: [lo1+lo2, hi1+hi2].
  Interval operator+(const Interval& other) const {
    if (empty() || other.empty()) return empty_interval();
    return Interval{lo + other.lo, hi + other.hi};
  }

  friend bool operator==(const Interval& a, const Interval& b) {
    if (a.empty() && b.empty()) return true;
    return a.lo == b.lo && a.hi == b.hi;
  }
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

}  // namespace cvsafe::util
