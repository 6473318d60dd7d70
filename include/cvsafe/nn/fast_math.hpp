#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

/// \file fast_math.hpp
/// Branchless transcendental kernels for the activation hot loops.

namespace cvsafe::nn {

/// 2^k for an integral \p k in [-1022, 1023], built from bits alone. k is
/// read from the low mantissa bits of k + 1.5 * 2^52 (exact: the ulp is 1
/// there) rather than through a double->int64 conversion, which AVX2 has
/// no packed form of; the shift then drops the constant's high bits and
/// leaves (k + 1023) << 52, the biased exponent of 2^k.
inline double pow2_integral(double k) noexcept {
  const std::uint64_t kbits = std::bit_cast<std::uint64_t>(k + 0x1.8p52);
  return std::bit_cast<double>((kbits + 1023) << 52);
}

/// Double-precision tanh built for auto-vectorization: no data-dependent
/// branches (selects only), explicit std::fma so the vector body and the
/// scalar remainder of a vectorized loop round identically, and a
/// bit-manipulated 2^k scaling instead of libm calls. The selects only
/// if-convert when the caller is compiled with -fno-trapping-math, as the
/// activation kernels are (src/nn/CMakeLists.txt).
///
/// Accuracy: computed as expm1(2|x|) / (expm1(2|x|) + 2) with a degree-13
/// Taylor kernel on |r| <= ln(2)/2; observed error vs. std::tanh is a few
/// ulp (see nn_fast_math_test.cpp, which sweeps dense and random inputs).
/// Every call site evaluates the same correctly rounded operations in the
/// same order, so all inference/training paths that share it are mutually
/// bit-exact, in the baseline and the x86-64-v3 kernel clones alike
/// (src/nn/isa_dispatch.hpp).
///
/// Special values follow std::tanh: NaN -> NaN, +/-inf -> +/-1,
/// +/-0 -> +/-0, |x| >= 19.0625 saturates to +/-1 (the double-precision
/// rounding limit).
inline double fast_tanh(double x) noexcept {
  constexpr double kLog2e = 1.44269504088896338700e+00;   // log2(e)
  constexpr double kLn2Hi = 6.93147180369123816490e-01;   // ln2 head, 21 low zeros
  constexpr double kLn2Lo = 1.90821492927058770002e-10;   // ln2 tail
  constexpr double kSat = 19.0625;  // tanh(x) rounds to 1.0 beyond this

  const double ax = std::fabs(x);
  // NaN compares false, so it also lands on the saturated constant here;
  // the final select restores NaN propagation.
  const double y = ax < kSat ? ax : kSat;
  const double z = 2.0 * y;  // [0, 38.125]

  // exp(z) = 2^k * exp(r), r in [-ln2/2, ln2/2]. k*ln2_hi is exact because
  // k < 2^6 and the head has 21 trailing zero bits.
  const double kd = std::nearbyint(z * kLog2e);  // in [0, 56]
  const double hi = std::fma(-kd, kLn2Hi, z);
  const double r = std::fma(-kd, kLn2Lo, hi);

  // expm1(r) = r + r^2 * q(r) with the Taylor tail of exp; the last kept
  // term is r^13/13!, whose successor is below 1 ulp on this range.
  const double r2 = r * r;
  double q = 1.0 / 6227020800.0;  // 1/13!
  q = std::fma(q, r, 1.0 / 479001600.0);
  q = std::fma(q, r, 1.0 / 39916800.0);
  q = std::fma(q, r, 1.0 / 3628800.0);
  q = std::fma(q, r, 1.0 / 362880.0);
  q = std::fma(q, r, 1.0 / 40320.0);
  q = std::fma(q, r, 1.0 / 5040.0);
  q = std::fma(q, r, 1.0 / 720.0);
  q = std::fma(q, r, 1.0 / 120.0);
  q = std::fma(q, r, 1.0 / 24.0);
  q = std::fma(q, r, 1.0 / 6.0);
  q = std::fma(q, r, 0.5);
  const double p = std::fma(r2, q, r);  // expm1(r)

  // expm1(z) = 2^k * expm1(r) + (2^k - 1), assembled in one fma. The
  // shifted-exponent bit trick builds 2^k without ldexp.
  const double two_k = pow2_integral(kd);
  const double em1 = std::fma(two_k, p, two_k - 1.0);

  // tanh(|x|) = expm1(2|x|) / (expm1(2|x|) + 2), then restore the sign.
  const double t = em1 / (em1 + 2.0);
  const double res = std::copysign(t, x);
  return std::isnan(x) ? x : res;
}

}  // namespace cvsafe::nn
