#include "cvsafe/util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cvsafe::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ConsecutiveSmallSeedsAreIndependent) {
  // SplitMix64 expansion must decorrelate seeds 0,1,2,... (batch runner
  // seeds simulations consecutively).
  Rng a(100), b(101);
  double corr = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    corr += (a.uniform01() - 0.5) * (b.uniform01() - 0.5);
  }
  corr /= n;
  EXPECT_LT(std::abs(corr), 0.01);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanAndVariance) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform01();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-2.5, 7.25);
    ASSERT_GE(x, -2.5);
    ASSERT_LT(x, 7.25);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 600);  // ~6 sigma
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

// skip_normals(n) stands in for n calls to normal() (an acceleration
// profile skips the steps it draws later from a private copy), so every
// later draw must be the one those calls would have left: raw outputs,
// the cached deviate and the pairs after it.
TEST(Rng, SkipNormalsLeavesTheStateOfDrawingThem) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const bool cached_on_entry : {false, true}) {
    for (std::size_t n = 0; n <= 9; ++n) {
      Rng drawn(0x5eed + n);
      if (cached_on_entry) drawn.normal();  // caches the pair's second
      Rng skipped = drawn;
      for (std::size_t i = 0; i < n; ++i) drawn.normal();
      skipped.skip_normals(n);
      // Deviates first (a cached one surfaces here), then raw outputs;
      // and the other way round on copies.
      Rng drawn_raw_first = drawn;
      Rng skipped_raw_first = skipped;
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(bits(drawn.normal()), bits(skipped.normal()))
            << "n=" << n << " cached=" << cached_on_entry << " k=" << k;
      }
      EXPECT_EQ(drawn.next_u64(), skipped.next_u64())
          << "n=" << n << " cached=" << cached_on_entry;
      EXPECT_EQ(drawn_raw_first.next_u64(), skipped_raw_first.next_u64())
          << "n=" << n << " cached=" << cached_on_entry;
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(bits(drawn_raw_first.normal()),
                  bits(skipped_raw_first.normal()))
            << "n=" << n << " cached=" << cached_on_entry << " k=" << k;
      }
    }
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.split();
  // The child stream must differ from the parent continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ReseedResetsSequence) {
  Rng rng(31);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(rng.next_u64());
  rng.reseed(31);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(rng.next_u64(), first[i]);
}

}  // namespace
}  // namespace cvsafe::util
