#include "cvsafe/util/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "cvsafe/util/rng.hpp"

namespace cvsafe::util {
namespace {

TEST(IntervalSet, EmptyDefaults) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.measure(), 0.0);
  EXPECT_FALSE(s.contains(0.0));
  EXPECT_TRUE(s.hull().empty());
}

TEST(IntervalSet, SingletonDropsEmpty) {
  IntervalSet s(Interval::empty_interval());
  EXPECT_TRUE(s.empty());
  IntervalSet p(Interval{1.0, 2.0});
  EXPECT_EQ(p.size(), 1u);
}

TEST(IntervalSet, NormalizationMergesOverlapsAndTouching) {
  IntervalSet s{{0.0, 2.0}, {1.0, 3.0}, {3.0, 4.0}, {6.0, 7.0}};
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], (Interval{0.0, 4.0}));
  EXPECT_EQ(s[1], (Interval{6.0, 7.0}));
  EXPECT_NEAR(s.measure(), 5.0, 1e-12);
}

TEST(IntervalSet, InsertKeepsNormalForm) {
  IntervalSet s{{0.0, 1.0}, {4.0, 5.0}};
  s.insert(Interval{0.5, 4.2});  // bridges both parts
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], (Interval{0.0, 5.0}));
  s.insert(Interval::empty_interval());
  EXPECT_EQ(s.size(), 1u);
}

TEST(IntervalSet, ContainsAndIntersects) {
  const IntervalSet s{{0.0, 1.0}, {3.0, 4.0}};
  EXPECT_TRUE(s.contains(0.5));
  EXPECT_TRUE(s.contains(3.0));
  EXPECT_FALSE(s.contains(2.0));
  EXPECT_TRUE(s.intersects(Interval{0.9, 1.5}));
  EXPECT_TRUE(s.intersects(Interval{1.5, 3.0}));  // touches second part
  EXPECT_FALSE(s.intersects(Interval{1.5, 2.5}));
  EXPECT_FALSE(s.intersects(Interval::empty_interval()));
}

TEST(IntervalSet, MinMaxHull) {
  const IntervalSet s{{3.0, 4.0}, {0.0, 1.0}};
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 4.0);
  EXPECT_EQ(s.hull(), (Interval{0.0, 4.0}));
}

TEST(IntervalSet, Unite) {
  const IntervalSet a{{0.0, 1.0}};
  const IntervalSet b{{0.5, 2.0}, {5.0, 6.0}};
  const IntervalSet u = a.unite(b);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u[0], (Interval{0.0, 2.0}));
  EXPECT_EQ(u[1], (Interval{5.0, 6.0}));
}

TEST(IntervalSet, IntersectWithInterval) {
  const IntervalSet s{{0.0, 2.0}, {4.0, 6.0}};
  const IntervalSet r = s.intersect(Interval{1.0, 5.0});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (Interval{1.0, 2.0}));
  EXPECT_EQ(r[1], (Interval{4.0, 5.0}));
  EXPECT_TRUE(s.intersect(Interval{2.5, 3.5}).empty());
}

TEST(IntervalSet, After) {
  const IntervalSet s{{0.0, 2.0}, {4.0, 6.0}};
  const IntervalSet a = s.after(1.0);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], (Interval{1.0, 2.0}));
  const IntervalSet b = s.after(3.0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], (Interval{4.0, 6.0}));
  EXPECT_TRUE(s.after(7.0).empty());
}

TEST(IntervalSet, FirstPointAfter) {
  const IntervalSet s{{0.0, 2.0}, {4.0, 6.0}};
  EXPECT_EQ(s.first_point_after(-1.0).value(), 0.0);
  EXPECT_EQ(s.first_point_after(1.0).value(), 1.0);
  EXPECT_EQ(s.first_point_after(3.0).value(), 4.0);
  EXPECT_FALSE(s.first_point_after(6.5).has_value());
}

// Degenerate inputs guarded by the contracts layer: empty operands and
// point (zero-width) intervals must flow through every operation without
// tripping an invariant or producing de-normalized sets.
TEST(IntervalSetDegenerate, EmptyJoinAndIntersect) {
  const IntervalSet empty;
  const IntervalSet s{{0.0, 1.0}, {3.0, 4.0}};
  EXPECT_EQ(empty.unite(empty), IntervalSet{});
  EXPECT_EQ(empty.unite(s), s);
  EXPECT_EQ(s.unite(empty), s);
  EXPECT_TRUE(empty.intersect(Interval{0.0, 10.0}).empty());
  EXPECT_TRUE(s.intersect(Interval::empty_interval()).empty());
  EXPECT_TRUE(empty.after(0.0).empty());
  EXPECT_FALSE(empty.first_point_after(0.0).has_value());
  EXPECT_FALSE(empty.intersects(Interval{0.0, 1.0}));
}

TEST(IntervalSetDegenerate, PointIntervals) {
  IntervalSet s;
  s.insert(Interval::point(2.0));
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.measure(), 0.0);
  EXPECT_TRUE(s.contains(2.0));
  EXPECT_FALSE(s.contains(2.0 + 1e-12));
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 2.0);

  // A point touching a closed end merges rather than duplicating.
  s.insert(Interval{2.0, 3.0});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], (Interval{2.0, 3.0}));

  // A disjoint point stays its own part and participates in queries.
  s.insert(Interval::point(5.0));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.intersects(Interval{4.5, 5.5}));
  EXPECT_EQ(s.first_point_after(4.0).value(), 5.0);
  const IntervalSet clipped = s.intersect(Interval{5.0, 9.0});
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0], Interval::point(5.0));
}

TEST(IntervalSetDegenerate, PointOnlySetsNormalize) {
  const IntervalSet s{Interval::point(1.0), Interval::point(1.0),
                      Interval::point(0.0)};
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], Interval::point(0.0));
  EXPECT_EQ(s[1], Interval::point(1.0));
  EXPECT_EQ(s.hull(), (Interval{0.0, 1.0}));
  EXPECT_EQ(s.measure(), 0.0);
}

// Property: membership in the union equals membership in some operand.
TEST(IntervalSetProperty, UnionMembership) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Interval> parts;
    IntervalSet s;
    for (int i = 0; i < 5; ++i) {
      const double lo = rng.uniform(-10, 10);
      const Interval iv{lo, lo + rng.uniform(0.0, 3.0)};
      parts.push_back(iv);
      s.insert(iv);
    }
    for (int q = 0; q < 20; ++q) {
      const double x = rng.uniform(-11, 14);
      bool any = false;
      for (const auto& iv : parts) any = any || iv.contains(x);
      ASSERT_EQ(s.contains(x), any) << "x=" << x;
    }
    // Normal form: sorted and strictly disjoint.
    for (std::size_t i = 1; i < s.size(); ++i) {
      ASSERT_GT(s[i].lo, s[i - 1].hi);
    }
  }
}

// Property: measure is monotone under union and bounded by the hull.
TEST(IntervalSetProperty, MeasureMonotone) {
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    IntervalSet s;
    double prev = 0.0;
    for (int i = 0; i < 6; ++i) {
      const double lo = rng.uniform(-10, 10);
      s.insert(Interval{lo, lo + rng.uniform(0.0, 4.0)});
      ASSERT_GE(s.measure(), prev - 1e-12);
      prev = s.measure();
      ASSERT_LE(s.measure(), s.hull().width() + 1e-12);
    }
  }
}

// --- In-place forms against their allocating references -----------------

bool same_bits(const Interval& a, const Interval& b) {
  return std::bit_cast<std::uint64_t>(a.lo) ==
             std::bit_cast<std::uint64_t>(b.lo) &&
         std::bit_cast<std::uint64_t>(a.hi) ==
             std::bit_cast<std::uint64_t>(b.hi);
}

void expect_same_parts(const IntervalSet& s,
                       const std::vector<Interval>& parts) {
  ASSERT_EQ(s.size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    ASSERT_TRUE(same_bits(s[i], parts[i])) << s << " part " << i;
  }
}

/// insert() as a sort followed by a merge into a fresh vector.
void reference_insert(std::vector<Interval>& parts, const Interval& iv) {
  if (iv.empty()) return;
  parts.push_back(iv);
  if (parts.size() < 2) return;
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> merged;
  for (const auto& part : parts) {
    if (!merged.empty() && part.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, part.hi);
    } else {
      merged.push_back(part);
    }
  }
  parts = std::move(merged);
}

/// Windows on a coarse grid (so endpoints often coincide: touching and
/// nested parts) or anywhere, with points and empty intervals mixed in.
Interval random_part(Rng& rng) {
  const bool grid = rng.bernoulli(0.5);
  const double lo = grid ? 0.5 * static_cast<double>(rng.uniform_int(-8, 8))
                         : rng.uniform(-4.0, 4.0);
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return Interval::point(lo);
    case 1:
      return Interval::empty_interval();
    default:
      return Interval{lo, lo + (grid ? 0.5 * static_cast<double>(
                                               rng.uniform_int(0, 6))
                                     : rng.uniform(0.0, 3.0))};
  }
}

TEST(IntervalSetProperty, InPlaceMergeMatchesFreshVectorMerge) {
  Rng rng(26);
  IntervalSet reused;  // cleared, never replaced, across trials
  for (int trial = 0; trial < 4000; ++trial) {
    reused.clear();
    std::vector<Interval> reference;
    const auto n = rng.uniform_int(0, 7);
    for (std::int64_t i = 0; i < n; ++i) {
      const Interval iv = random_part(rng);
      reused.insert(iv);
      reference_insert(reference, iv);
      expect_same_parts(reused, reference);
    }
  }
}

TEST(IntervalSetProperty, AfterQueriesMatchAfter) {
  Rng rng(27);
  for (int trial = 0; trial < 4000; ++trial) {
    IntervalSet s;
    const auto n = rng.uniform_int(0, 5);
    for (std::int64_t i = 0; i < n; ++i) s.insert(random_part(rng));
    std::vector<double> times{rng.uniform(-6.0, 9.0)};
    for (const auto& part : s) {  // t exactly on a part boundary
      times.push_back(part.lo);
      times.push_back(part.hi);
    }
    for (const double t : times) {
      const IntervalSet after = s.after(t);
      const auto first_point = s.first_point_after(t);
      const auto first_part = s.first_part_after(t);
      ASSERT_EQ(first_point.has_value(), !after.empty());
      ASSERT_EQ(first_part.has_value(), !after.empty());
      if (!after.empty()) {
        ASSERT_TRUE(same_bits(*first_part, after[0])) << s << " t=" << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(*first_point),
                  std::bit_cast<std::uint64_t>(after.min()));
      }
      for (int q = 0; q < 6; ++q) {
        Interval iv = random_part(rng);
        if (q == 0 && !after.empty()) iv = Interval::point(after.max());
        if (q == 1) iv = Interval{t - 1.0, t};  // ends exactly at t
        ASSERT_EQ(s.intersects_after(t, iv), after.intersects(iv))
            << s << " t=" << t << " iv=" << iv;
      }
    }
  }
}

TEST(IntervalSetProperty, InflateIsUnionOfInflatedParts) {
  Rng rng(28);
  for (int trial = 0; trial < 3000; ++trial) {
    IntervalSet s;
    const auto n = rng.uniform_int(0, 6);
    for (std::int64_t i = 0; i < n; ++i) s.insert(random_part(rng));
    const double margin = rng.bernoulli(0.3) ? 0.25 : rng.uniform(0.0, 1.0);
    std::vector<Interval> reference;
    for (const auto& part : s) {
      reference_insert(reference, part.inflated(margin));
    }
    s.inflate(margin);
    expect_same_parts(s, reference);
  }
}

TEST(IntervalSet, ClearEmptiesAndStaysUsable) {
  IntervalSet s{{0.0, 1.0}, {2.0, 3.0}};
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.first_point_after(-1.0).has_value());
  s.insert(Interval{5.0, 6.0});
  EXPECT_EQ(s, IntervalSet(Interval{5.0, 6.0}));
}

}  // namespace
}  // namespace cvsafe::util
