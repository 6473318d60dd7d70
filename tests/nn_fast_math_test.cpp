// Accuracy and special-value tests for the vectorizable fast_tanh used by
// the activation kernels. The bound asserted here (8 ulp) is deliberately
// looser than the observed maximum (~4 ulp) so a different FMA/rounding
// environment doesn't flake, while still catching any real defect — a
// wrong polynomial term or range-reduction bug shows up as thousands of
// ulp, not single digits.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cvsafe/nn/activation.hpp"
#include "cvsafe/nn/fast_math.hpp"
#include "cvsafe/nn/matrix.hpp"
#include "cvsafe/util/rng.hpp"

namespace {

using cvsafe::nn::Activation;
using cvsafe::nn::fast_tanh;
using cvsafe::nn::Matrix;

std::int64_t ulp_diff(double a, double b) {
  if (a == b) return 0;  // cvsafe-lint: allow(float-compare)
  auto ia = std::bit_cast<std::int64_t>(a);
  auto ib = std::bit_cast<std::int64_t>(b);
  // Map to a monotonic integer line so the difference counts ulps across
  // the sign boundary too.
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  return ia > ib ? ia - ib : ib - ia;
}

constexpr std::int64_t kMaxUlp = 8;

TEST(FastTanhTest, DenseSweepWithinUlpBound) {
  for (double x = -25.0; x <= 25.0; x += 1e-3) {
    ASSERT_LE(ulp_diff(fast_tanh(x), std::tanh(x)), kMaxUlp) << "x = " << x;
  }
}

TEST(FastTanhTest, RandomAndTinyInputsWithinUlpBound) {
  cvsafe::util::Rng rng(41);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.uniform(-40.0, 40.0);
    ASSERT_LE(ulp_diff(fast_tanh(x), std::tanh(x)), kMaxUlp) << "x = " << x;
  }
  for (double x = 1e-300; x < 1.0; x *= 1.31) {
    ASSERT_LE(ulp_diff(fast_tanh(x), std::tanh(x)), kMaxUlp) << "x = " << x;
    ASSERT_LE(ulp_diff(fast_tanh(-x), std::tanh(-x)), kMaxUlp) << "x = " << -x;
  }
}

TEST(FastTanhTest, SpecialValues) {
  EXPECT_TRUE(std::isnan(fast_tanh(std::nan(""))));
  EXPECT_EQ(fast_tanh(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_EQ(fast_tanh(-std::numeric_limits<double>::infinity()), -1.0);
  EXPECT_EQ(fast_tanh(0.0), 0.0);
  EXPECT_TRUE(std::signbit(fast_tanh(-0.0)));
  EXPECT_EQ(fast_tanh(25.0), 1.0);   // saturated
  EXPECT_EQ(fast_tanh(-25.0), -1.0);
  // Exact for subnormal-adjacent magnitudes where tanh(x) == x.
  EXPECT_EQ(fast_tanh(1e-300), 1e-300);
}

TEST(FastTanhTest, OddSymmetry) {
  cvsafe::util::Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(0.0, 30.0);
    EXPECT_EQ(fast_tanh(-x), -fast_tanh(x)) << "x = " << x;
  }
}

TEST(FastTanhTest, Pow2IntegralMatchesIntegerConversion) {
  // The bit construction against the int64 conversion it replaced, over
  // fast_tanh's k range [0, 56] and the rest of the documented domain.
  for (int k = -1022; k <= 1023; ++k) {
    const double kd = k;
    const double converted = std::bit_cast<double>(
        (static_cast<std::int64_t>(kd) + 1023) << 52);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cvsafe::nn::pow2_integral(kd)),
              std::bit_cast<std::uint64_t>(converted))
        << "k = " << k;
    ASSERT_EQ(cvsafe::nn::pow2_integral(kd), std::ldexp(1.0, k));
  }
}

// --- Runtime-dispatched activation kernels, bit for bit --------------------
//
// apply_activation_inplace, bias_activation_inplace and
// activation_derivative are compiled for baseline x86-64 and x86-64-v3
// (src/nn/isa_dispatch.hpp); the v3 clone runs fast_tanh as a vectorized
// loop with hardware FMA. The references below are the same formulas
// written as scalar loops in this test, with the baseline flags, so on an
// AVX2 + FMA host these tests hold the v3 clone to the baseline's bits.

constexpr std::size_t kRowShapes[] = {1, 7, 64, 513};
constexpr std::size_t kWidthShapes[] = {1, 4, 24, 25, 257};
constexpr Activation kActivations[] = {Activation::kIdentity,
                                       Activation::kRelu, Activation::kTanh,
                                       Activation::kSigmoid};

double reference_activation(Activation act, double x) {
  switch (act) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kTanh: return fast_tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

double reference_derivative(Activation act, double x) {
  switch (act) {
    case Activation::kIdentity: return 1.0;
    case Activation::kRelu: return x > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh: {
      const double t = fast_tanh(x);
      return 1.0 - t * t;
    }
    case Activation::kSigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s);
    }
  }
  return x;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Inputs that reach every select and rounding step of fast_tanh: signed
/// zeros, subnormals, +/-inf, NaN, the saturation threshold 19.0625 and
/// its neighbours, and points where z * log2(e) = 2|x| * log2(e) lands on
/// or next to k + 0.5, where nearbyint's tie rule picks k.
std::vector<double> tanh_edge_inputs(int* exact_ties) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kLog2e = 1.44269504088896338700e+00;  // fast_tanh's
  std::vector<double> v = {0.0,
                           -0.0,
                           kInf,
                           -kInf,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min() / 3.0,
                           -std::numeric_limits<double>::min(),
                           1e-300,
                           -1e-300};
  for (const double sat : {19.0625, -19.0625}) {
    double lo = sat;
    double hi = sat;
    v.push_back(sat);
    for (int i = 0; i < 3; ++i) {
      lo = std::nextafter(lo, -kInf);
      hi = std::nextafter(hi, kInf);
      v.push_back(lo);
      v.push_back(hi);
    }
  }
  *exact_ties = 0;
  for (int k = 0; k <= 56; ++k) {
    double x = (k + 0.5) / (2.0 * kLog2e);
    for (int i = 0; i < 4; ++i) x = std::nextafter(x, -kInf);
    for (int i = 0; i < 9; ++i, x = std::nextafter(x, kInf)) {
      // cvsafe-lint: allow(float-compare) counting exact ties on purpose
      if ((2.0 * x) * kLog2e == k + 0.5) ++*exact_ties;
      v.push_back(x);
      v.push_back(-x);
    }
  }
  return v;
}

/// rows x cols: the edge inputs in turn with seeded random values between
/// them, so every edge value lands in vector bodies and scalar tails.
Matrix activation_input(std::size_t rows, std::size_t cols,
                        const std::vector<double>& edges,
                        cvsafe::util::Rng& rng, std::size_t* next_edge) {
  Matrix z(rows, cols);
  for (auto& x : z.data()) {
    if (rng.uniform_int(0, 2) == 0) {
      x = edges[(*next_edge)++ % edges.size()];
    } else {
      x = rng.uniform(-25.0, 25.0);
    }
  }
  return z;
}

TEST(ActivationKernels, MatchScalarReferenceBitForBit) {
  std::printf("[ kernels  ] NN kernels run the %s clone on this host\n",
              cvsafe::nn::kernel_isa());
  int exact_ties = 0;
  const std::vector<double> edges = tanh_edge_inputs(&exact_ties);
  ASSERT_GT(exact_ties, 0);
  cvsafe::util::Rng rng(43);
  std::size_t next_edge = 0;
  for (const Activation act : kActivations) {
    for (const std::size_t rows : kRowShapes) {
      for (const std::size_t cols : kWidthShapes) {
        SCOPED_TRACE(testing::Message()
                     << cvsafe::nn::activation_name(act) << " " << rows
                     << "x" << cols);
        const Matrix z = activation_input(rows, cols, edges, rng,
                                          &next_edge);
        Matrix bias(1, cols);
        for (auto& b : bias.data()) b = rng.uniform(-1.0, 1.0);

        Matrix applied = z;
        cvsafe::nn::apply_activation_inplace(act, applied);
        Matrix fused = z;
        cvsafe::nn::bias_activation_inplace(act, bias, fused);
        const Matrix derivative = cvsafe::nn::activation_derivative(act, z);

        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t j = 0; j < cols; ++j) {
            const double x = z(i, j);
            ASSERT_EQ(bits(applied(i, j)), bits(reference_activation(act, x)))
                << "apply, x = " << std::hexfloat << x;
            ASSERT_EQ(bits(fused(i, j)),
                      bits(reference_activation(act, x + bias(0, j))))
                << "bias, x = " << std::hexfloat << x;
            ASSERT_EQ(bits(derivative(i, j)),
                      bits(reference_derivative(act, x)))
                << "derivative, x = " << std::hexfloat << x;
          }
        }
      }
    }
  }
}

}  // namespace
