#include "cvsafe/util/interval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/rng.hpp"

namespace cvsafe::util {
namespace {

TEST(Interval, EmptyBasics) {
  const Interval e = Interval::empty_interval();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.width(), 0.0);
  EXPECT_FALSE(e.contains(0.0));
}

TEST(Interval, PointAndCentered) {
  const Interval p = Interval::point(3.0);
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.width(), 0.0);
  EXPECT_TRUE(p.contains(3.0));

  const Interval c = Interval::centered(5.0, 2.0);
  EXPECT_EQ(c.lo, 3.0);
  EXPECT_EQ(c.hi, 7.0);
  EXPECT_EQ(c.mid(), 5.0);
}

TEST(Interval, ContainsScalar) {
  const Interval iv{1.0, 4.0};
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(4.0));
  EXPECT_TRUE(iv.contains(2.5));
  EXPECT_FALSE(iv.contains(0.999));
  EXPECT_FALSE(iv.contains(4.001));
}

TEST(Interval, ContainsInterval) {
  const Interval outer{0.0, 10.0};
  EXPECT_TRUE(outer.contains(Interval{2.0, 5.0}));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_TRUE(outer.contains(Interval::empty_interval()));
  EXPECT_FALSE(outer.contains(Interval{-1.0, 5.0}));
  EXPECT_FALSE(outer.contains(Interval{5.0, 11.0}));
}

TEST(Interval, Intersects) {
  EXPECT_TRUE((Interval{0.0, 2.0}).intersects(Interval{2.0, 4.0}));  // touch
  EXPECT_TRUE((Interval{0.0, 3.0}).intersects(Interval{2.0, 4.0}));
  EXPECT_FALSE((Interval{0.0, 1.0}).intersects(Interval{2.0, 4.0}));
  EXPECT_FALSE(Interval::empty_interval().intersects(Interval{0.0, 1.0}));
}

TEST(Interval, IntersectComputesOverlap) {
  const Interval r = Interval{0.0, 3.0}.intersect(Interval{2.0, 5.0});
  EXPECT_EQ(r.lo, 2.0);
  EXPECT_EQ(r.hi, 3.0);
  const Interval disjoint = Interval{0.0, 1.0}.intersect(Interval{2.0, 3.0});
  EXPECT_TRUE(disjoint.empty());
}

TEST(Interval, HullCoversBoth) {
  const Interval h = Interval{0.0, 1.0}.hull(Interval{3.0, 4.0});
  EXPECT_EQ(h.lo, 0.0);
  EXPECT_EQ(h.hi, 4.0);
  EXPECT_EQ(Interval::empty_interval().hull(Interval{1.0, 2.0}),
            (Interval{1.0, 2.0}));
}

TEST(Interval, ShiftAndInflate) {
  const Interval iv{1.0, 2.0};
  EXPECT_EQ(iv.shifted(3.0), (Interval{4.0, 5.0}));
  EXPECT_EQ(iv.inflated(0.5), (Interval{0.5, 2.5}));
  EXPECT_TRUE(Interval::empty_interval().shifted(1.0).empty());
}

TEST(Interval, MinkowskiSum) {
  EXPECT_EQ((Interval{1.0, 2.0} + Interval{10.0, 20.0}),
            (Interval{11.0, 22.0}));
  EXPECT_TRUE((Interval::empty_interval() + Interval{0.0, 1.0}).empty());
}

TEST(Interval, ClampIntoInterval) {
  const Interval iv{-1.0, 1.0};
  EXPECT_EQ(iv.clamp(-5.0), -1.0);
  EXPECT_EQ(iv.clamp(0.3), 0.3);
  EXPECT_EQ(iv.clamp(9.0), 1.0);

  // clamp is min(max(x, lo), hi), so that an empty interval reached with
  // contracts compiled out is not undefined behaviour; on every non-empty
  // interval it gives std::clamp's bits, NaN and signed zeros included.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double bounds[] = {-kInf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, kInf};
  const double xs[] = {-kInf, -3.0, -1.0, -0.0, 0.0,
                       0.25,  1.0,  4.0,  kInf, kNan};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const double lo : bounds) {
    for (const double hi : bounds) {
      if (hi < lo) continue;
      const Interval bounded{lo, hi};
      for (const double x : xs) {
        EXPECT_EQ(bits(bounded.clamp(x)), bits(std::clamp(x, lo, hi)))
            << "x=" << x << " in [" << lo << ", " << hi << "]";
      }
    }
  }
}

TEST(Interval, Everything) {
  const Interval all = Interval::everything();
  EXPECT_TRUE(all.contains(1e300));
  EXPECT_TRUE(all.contains(-1e300));
}

// Property: intersection is the largest interval contained in both.
TEST(IntervalProperty, IntersectionIsSubsetOfBoth) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const Interval a{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const Interval b{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const Interval r = a.intersect(b);
    if (!r.empty()) {
      EXPECT_TRUE(a.contains(r));
      EXPECT_TRUE(b.contains(r));
    } else {
      EXPECT_TRUE(a.empty() || b.empty() || !a.intersects(b));
    }
  }
}

// Property: hull contains both operands and intersect/hull are monotone.
TEST(IntervalProperty, HullContainsOperands) {
  Rng rng(101);
  for (int i = 0; i < 2000; ++i) {
    const Interval a{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const Interval b{rng.uniform(-10, 10), rng.uniform(-10, 10)};
    const Interval h = a.hull(b);
    EXPECT_TRUE(h.contains(a));
    EXPECT_TRUE(h.contains(b));
  }
}

// A NaN endpoint would read as *non-empty* (lo > hi compares false) while
// containing nothing, silently voiding every downstream safety check. The
// constructor must reject it.
TEST(IntervalContract, NanEndpointsAreRejected) {
  ScopedContractMode mode(ContractMode::kThrow);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((Interval{nan, 1.0}), ContractViolation);
  EXPECT_THROW((Interval{1.0, nan}), ContractViolation);
  EXPECT_THROW((Interval{nan, nan}), ContractViolation);
  EXPECT_THROW(Interval::point(nan), ContractViolation);
}

TEST(IntervalContract, InfiniteEndpointsAreFine) {
  const double inf = std::numeric_limits<double>::infinity();
  const Interval whole{-inf, inf};
  EXPECT_FALSE(whole.empty());
  EXPECT_TRUE(whole.contains(0.0));
  EXPECT_FALSE((Interval{0.0, inf}).empty());
}

// Pins the documented empty-interval width convention: 0, NOT the
// (negative) endpoint difference. The sound verifier's bisection
// termination accumulates widths over partitions and relies on this.
TEST(IntervalContract, EmptyWidthIsZero) {
  EXPECT_EQ(Interval::empty_interval().width(), 0.0);
  EXPECT_EQ((Interval{3.0, 1.0}).width(), 0.0);
  EXPECT_EQ((Interval{5.0, 5.0}).width(), 0.0);  // point, not empty
}

// Pins the documented centered() behavior: zero radius yields a point
// (never empty), negative radius violates the contract.
TEST(IntervalContract, CenteredNeverProducesEmpty) {
  const Interval p = Interval::centered(2.0, 0.0);
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.lo, 2.0);
  EXPECT_EQ(p.hi, 2.0);

  ScopedContractMode mode(ContractMode::kThrow);
  EXPECT_THROW(Interval::centered(2.0, -1.0), ContractViolation);
}

}  // namespace
}  // namespace cvsafe::util
