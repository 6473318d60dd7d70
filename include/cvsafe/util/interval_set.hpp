#pragma once

#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <vector>

#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/interval.hpp"

/// \file interval_set.hpp
/// Finite unions of closed intervals.
///
/// With several surrounding vehicles (the paper's general model has
/// C_1 ... C_{n-1}), the set of times at which the conflict zone may be
/// occupied is the UNION of the per-vehicle passing windows — a union of
/// intervals, not a single interval. IntervalSet is the canonical
/// normalized representation (sorted, pairwise disjoint, merged when
/// overlapping or touching).

namespace cvsafe::util {

/// A normalized union of closed intervals.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Singleton set (empty intervals are dropped).
  explicit IntervalSet(const Interval& iv);

  IntervalSet(std::initializer_list<Interval> ivs);

  /// True iff the set contains no points.
  bool empty() const { return parts_.empty(); }

  /// Number of maximal disjoint intervals.
  std::size_t size() const { return parts_.size(); }

  /// The i-th maximal interval (sorted by lower bound).
  const Interval& operator[](std::size_t i) const {
    CVSAFE_EXPECTS(i < parts_.size(), "interval index out of range");
    return parts_[i];
  }
  auto begin() const { return parts_.begin(); }
  auto end() const { return parts_.end(); }

  /// Total measure (sum of widths).
  double measure() const;

  /// Smallest covered point; requires non-empty.
  double min() const {
    CVSAFE_EXPECTS(!empty(), "min of an empty interval set");
    return parts_.front().lo;
  }

  /// Largest covered point; requires non-empty.
  double max() const {
    CVSAFE_EXPECTS(!empty(), "max of an empty interval set");
    return parts_.back().hi;
  }

  /// Smallest single interval containing the whole set.
  Interval hull() const;

  /// True iff x is covered.
  bool contains(double x) const;

  /// True iff the interval intersects the set.
  bool intersects(const Interval& iv) const;

  /// Adds an interval (merging as needed). Empty intervals are ignored.
  /// Merges in place: once the storage has grown to the set's size,
  /// inserting allocates nothing.
  void insert(const Interval& iv);

  /// Removes every part, keeping the storage for the next inserts.
  void clear() { parts_.clear(); }

  /// Widens every part by \p margin (>= 0) on both sides and re-merges:
  /// the union of the inflated parts, computed in place.
  void inflate(double margin);

  /// Union with another set.
  IntervalSet unite(const IntervalSet& other) const;

  /// Intersection with a single interval.
  IntervalSet intersect(const Interval& iv) const;

  /// The part of the set at or after time \p t (used to discard passed
  /// windows). Allocates; the monitors use the queries below, which
  /// read the same values in place, and tests compare them against this.
  IntervalSet after(double t) const;

  /// The earliest covered point >= t, or nullopt when none
  /// (== after(t).min()).
  std::optional<double> first_point_after(double t) const;

  /// The first part of after(t), or nullopt when after(t) is empty
  /// (== after(t)[0]).
  std::optional<Interval> first_part_after(double t) const;

  /// True iff after(t) intersects \p iv (== after(t).intersects(iv)).
  bool intersects_after(double t, const Interval& iv) const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    if (a.parts_.size() != b.parts_.size()) return false;
    for (std::size_t i = 0; i < a.parts_.size(); ++i) {
      if (!(a.parts_[i] == b.parts_[i])) return false;
    }
    return true;
  }

 private:
  void normalize();
  std::vector<Interval> parts_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& s);

}  // namespace cvsafe::util
