#include "cvsafe/util/rounded_interval.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cvsafe/util/rng.hpp"

namespace cvsafe::util::rounded {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RoundedSteps, PrevNextBracketStrictly) {
  for (const double x : {0.0, 1.0, -1.0, 0.1, -0.1, 1e300, -1e300, 1e-300}) {
    EXPECT_LT(prev(x), x);
    EXPECT_GT(next(x), x);
  }
}

TEST(RoundedSteps, InfinitiesAreFixedPoints) {
  EXPECT_EQ(prev(-kInf), -kInf);
  EXPECT_EQ(next(kInf), kInf);
  // The one-sided steps still move off the opposite infinity.
  EXPECT_LT(prev(kInf), kInf);
  EXPECT_GT(next(-kInf), -kInf);
}

TEST(RoundedSteps, MatchNextafterBitForBit) {
  // prev/next step on the bit pattern; std::nextafter is the reference.
  // Random bit patterns cover every exponent, both signs, subnormals and
  // NaNs; the list covers the boundaries of each case.
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> xs = {0.0,   -0.0,   kTiny, -kTiny, 2 * kTiny,
                            -2 * kTiny, kMin, -kMin, kMin - kTiny,
                            -(kMin - kTiny), 1.0, -1.0, 0.5, -0.5,
                            kMax,  -kMax,  kInf,  -kInf,
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::quiet_NaN()};
  Rng rng(301);
  for (int i = 0; i < 1000000; ++i) {
    const auto hi = static_cast<std::uint64_t>(rng.uniform_int(0, 0xFFFFFFFF));
    const auto lo = static_cast<std::uint64_t>(rng.uniform_int(0, 0xFFFFFFFF));
    xs.push_back(std::bit_cast<double>(hi << 32 | lo));
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const double x : xs) {
    const double down = std::nextafter(x, -kInf);
    const double up = std::nextafter(x, kInf);
    if (std::isnan(x)) {
      ASSERT_TRUE(std::isnan(prev(x)) && std::isnan(next(x)));
      continue;
    }
    ASSERT_EQ(bits(prev(x)), bits(down)) << std::hexfloat << x;
    ASSERT_EQ(bits(next(x)), bits(up)) << std::hexfloat << x;
  }
}

TEST(RoundedScalarOps, BracketExactRationals) {
  // 0.1 + 0.2 has a well-known non-representable exact value; the
  // directed results must straddle it. Comparing against the
  // round-to-nearest result is the strongest portable statement.
  EXPECT_LT(add_down(0.1, 0.2), 0.1 + 0.2);
  EXPECT_GT(add_up(0.1, 0.2), 0.1 + 0.2);
  EXPECT_LT(mul_down(0.1, 0.3), 0.1 * 0.3);
  EXPECT_GT(mul_up(0.1, 0.3), 0.1 * 0.3);
  EXPECT_LT(div_down(1.0, 3.0), 1.0 / 3.0);
  EXPECT_GT(div_up(1.0, 3.0), 1.0 / 3.0);
  EXPECT_LT(sub_down(0.3, 0.1), 0.3 - 0.1);
  EXPECT_GT(sub_up(0.3, 0.1), 0.3 - 0.1);
}

TEST(RoundedIntervalOps, EmptyIsAbsorbing) {
  const Interval e = Interval::empty_interval();
  const Interval a{1.0, 2.0};
  EXPECT_TRUE(add(e, a).empty());
  EXPECT_TRUE(sub(a, e).empty());
  EXPECT_TRUE(mul(e, a).empty());
  EXPECT_TRUE(neg(e).empty());
  EXPECT_TRUE(scale(e, 2.0).empty());
  EXPECT_TRUE(div_scalar(e, 2.0).empty());
  EXPECT_TRUE(sqr(e).empty());
  EXPECT_TRUE(widen_ulps(e, 3).empty());
  EXPECT_TRUE(max(e, a).empty());
  EXPECT_TRUE(min(a, e).empty());
  EXPECT_TRUE(clamp(e, 0.0, 1.0).empty());
}

TEST(RoundedIntervalOps, NegationIsExact) {
  const Interval a{-1.5, 2.25};
  const Interval n = neg(a);
  EXPECT_EQ(n.lo, -2.25);
  EXPECT_EQ(n.hi, 1.5);
}

/// Fuzz: every concrete round-to-nearest evaluation at sampled points of
/// the operand intervals must land inside the directed result. This is
/// the property the sound certifier's FP-containment argument rests on.
TEST(RoundedIntervalOps, ConcreteEvaluationsAreContained) {
  util::Rng rng(20230417);
  for (int trial = 0; trial < 2000; ++trial) {
    const double a1 = rng.uniform(-10.0, 10.0);
    const double a2 = a1 + rng.uniform(0.0, 5.0);
    const double b1 = rng.uniform(-10.0, 10.0);
    const double b2 = b1 + rng.uniform(0.0, 5.0);
    const Interval a{a1, a2};
    const Interval b{b1, b2};
    const double s = rng.uniform(-4.0, 4.0);

    const Interval sum = add(a, b);
    const Interval dif = sub(a, b);
    const Interval prd = mul(a, b);
    const Interval sca = scale(a, s);
    const Interval squ = sqr(a);

    for (int sample = 0; sample < 8; ++sample) {
      const double x = rng.uniform(a.lo, a.hi);
      const double y = rng.uniform(b.lo, b.hi);
      EXPECT_TRUE(sum.contains(x + y));
      EXPECT_TRUE(dif.contains(x - y));
      EXPECT_TRUE(prd.contains(x * y));
      EXPECT_TRUE(sca.contains(x * s));
      EXPECT_TRUE(squ.contains(x * x));
      if (s != 0.0) {
        EXPECT_TRUE(div_scalar(a, s).contains(x / s));
      }
    }
  }
}

TEST(RoundedIntervalOps, SqrIsNonNegativeAndTight) {
  const Interval straddle{-2.0, 3.0};
  const Interval sq = sqr(straddle);
  EXPECT_EQ(sq.lo, 0.0);
  EXPECT_GE(sq.hi, 9.0);
  // Tighter than the four-corner product, which would give lo < 0 slack.
  EXPECT_LE(sq.hi, next(9.0));

  const Interval negative{-3.0, -2.0};
  const Interval nsq = sqr(negative);
  EXPECT_LE(nsq.lo, 4.0);
  EXPECT_GE(nsq.hi, 9.0);
  EXPECT_GE(nsq.lo, prev(4.0));
}

TEST(RoundedIntervalOps, ScaleAndDivScalarHandleSigns) {
  const Interval a{2.0, 3.0};
  const Interval neg_scaled = scale(a, -2.0);
  EXPECT_LE(neg_scaled.lo, -6.0);
  EXPECT_GE(neg_scaled.hi, -4.0);
  const Interval neg_divided = div_scalar(a, -2.0);
  EXPECT_LE(neg_divided.lo, -1.5);
  EXPECT_GE(neg_divided.hi, -1.0);
}

TEST(RoundedIntervalOps, WidenUlpsWidensExactly) {
  const Interval a{1.0, 2.0};
  const Interval w = widen_ulps(a, 3);
  EXPECT_EQ(w.lo, prev(prev(prev(1.0))));
  EXPECT_EQ(w.hi, next(next(next(2.0))));
  const Interval same = widen_ulps(a, 0);
  EXPECT_EQ(same.lo, 1.0);
  EXPECT_EQ(same.hi, 2.0);
}

TEST(RoundedIntervalOps, LatticeOpsAreExact) {
  const Interval a{1.0, 5.0};
  const Interval b{2.0, 3.0};
  EXPECT_EQ(max(a, b), (Interval{2.0, 5.0}));
  EXPECT_EQ(min(a, b), (Interval{1.0, 3.0}));
  EXPECT_EQ(clamp(a, 2.0, 4.0), (Interval{2.0, 4.0}));
}

/// Accumulated directed sums never cross the exact value: sum 0.1 n times
/// in interval arithmetic and compare against a high-precision anchor.
TEST(RoundedIntervalOps, AccumulatedSumStaysSound) {
  Interval acc{0.0, 0.0};
  const Interval tenth = Interval::point(0.1);
  for (int i = 0; i < 1000; ++i) acc = add(acc, tenth);
  // 0.1 is slightly above 1/10 in binary; 1000 * 0.1 = 100 + ~5.5e-15.
  EXPECT_LT(acc.lo, 100.000000000001);
  EXPECT_GT(acc.hi, 100.0);
  EXPECT_LT(acc.hi - acc.lo, 1e-9);  // slack stays ~ulp-scale
}

}  // namespace
}  // namespace cvsafe::util::rounded
