#include "cvsafe/nn/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>

#include "cvsafe/util/rng.hpp"
#include "support/train_reference.hpp"

namespace cvsafe::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (auto& x : m.data()) x = rng.uniform(-2, 2);
  return m;
}

void expect_near(const Matrix& a, const Matrix& b, double tol = 1e-12) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol);
  }
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(Matrix, RowVectorAndIdentity) {
  const Matrix r = Matrix::row_vector({1.0, 2.0, 3.0});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  const Matrix i = Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0);
  EXPECT_EQ(i(0, 1), 0.0);
}

TEST(Matrix, MatmulKnownValues) {
  const Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = a.matmul(b);
  expect_near(c, Matrix(2, 2, {58, 64, 139, 154}));
}

TEST(Matrix, MatmulIdentity) {
  util::Rng rng(1);
  const Matrix a = random_matrix(4, 4, rng);
  expect_near(a.matmul(Matrix::identity(4)), a);
  expect_near(Matrix::identity(4).matmul(a), a);
}

TEST(Matrix, MatmulTransposedEqualsExplicit) {
  // a b^T through transpose() and matmul, against the explicit sums.
  util::Rng rng(2);
  const Matrix a = random_matrix(5, 7, rng);
  const Matrix b = random_matrix(4, 7, rng);
  Matrix sums(5, 4);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 7; ++k) sums(i, j) += a(i, k) * b(j, k);
    }
  }
  expect_near(a.matmul(b.transpose()), sums, 1e-12);
}

TEST(Matrix, TransposedMatmulEqualsExplicit) {
  util::Rng rng(3);
  const Matrix a = random_matrix(6, 3, rng);
  const Matrix b = random_matrix(6, 4, rng);
  Matrix out;
  transposed_matmul_into(a, b, out);
  expect_near(out, a.transpose().matmul(b), 1e-12);
}

TEST(Matrix, AddSubScale) {
  const Matrix a(1, 3, {1, 2, 3});
  const Matrix b(1, 3, {4, 5, 6});
  expect_near(a + b, Matrix(1, 3, {5, 7, 9}));
  expect_near(b - a, Matrix(1, 3, {3, 3, 3}));
  expect_near(a * 2.0, Matrix(1, 3, {2, 4, 6}));
}

// The row broadcast, column sums and the Hadamard product are the
// per-layer training reference's (support/train_reference.hpp); the
// forward pass and the training step fuse them.
TEST(Matrix, RowBroadcastAndColumnSums) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  train_ref::add_to_every_row(m, Matrix::row_vector({10, 20, 30}));
  expect_near(m, Matrix(2, 3, {11, 22, 33, 14, 25, 36}));
  expect_near(train_ref::column_sums(m), Matrix::row_vector({25, 47, 69}));
}

TEST(Matrix, Hadamard) {
  const Matrix a(1, 3, {1, 2, 3});
  const Matrix b(1, 3, {4, 5, 6});
  expect_near(train_ref::hadamard(a, b), Matrix(1, 3, {4, 10, 18}));
}

TEST(Matrix, MaxAbs) {
  const Matrix a(1, 3, {1, -7, 3});
  EXPECT_EQ(a.max_abs(), 7.0);
  EXPECT_EQ(Matrix().max_abs(), 0.0);
}

TEST(Matrix, GlorotWithinLimit) {
  util::Rng rng(4);
  const Matrix m = Matrix::glorot(16, 8, rng);
  const double limit = std::sqrt(6.0 / (16 + 8));
  EXPECT_LE(m.max_abs(), limit);
  EXPECT_GT(m.max_abs(), 0.0);
}

// --- Runtime-dispatched kernels, bit for bit --------------------------------
//
// matmul_into and transposed_matmul_into are compiled for baseline
// x86-64 and for x86-64-v3, and the loader picks one per host
// (src/nn/isa_dispatch.hpp). The references below are in-order loops
// compiled into this test with the baseline flags, so on an AVX2 + FMA
// host these tests hold the v3 clone to the baseline's exact bits.

constexpr std::size_t kRowShapes[] = {1, 7, 64, 513};
// Tail shapes around the 4-wide vectors and 8-column tiles, and one wider
// than any tile.
constexpr std::size_t kWidthShapes[] = {1, 4, 24, 25, 257};

/// Bit equality. Two NaNs count as equal whatever their payloads: which
/// payload survives when two NaNs meet in one add depends on the operand
/// order the compiler picked, not on the numeric result.
bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got.data()[i], want.data()[i]))
        << "element " << i << ": " << std::hexfloat << got.data()[i]
        << " vs reference " << want.data()[i];
  }
}

/// Seeded random entries; one in 32 is a special value (signed zeros,
/// subnormals, huge magnitudes that overflow in products, +/-inf, NaN).
Matrix kernel_input(std::size_t r, std::size_t c, util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 3.0,
                             1e300,
                             -1e300,
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::quiet_NaN()};
  const auto last = static_cast<std::int64_t>(std::size(specials)) - 1;
  Matrix m(r, c);
  for (auto& x : m.data()) {
    x = rng.uniform(-2, 2);
    if (rng.uniform_int(0, 31) == 0) {
      x = specials[static_cast<std::size_t>(rng.uniform_int(0, last))];
    }
  }
  return m;
}

/// out(i, j) = sum over k ascending of a(i, k) * b(k, j), from 0.0.
Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

/// out(i, j) = sum over k ascending of a(k, i) * b(k, j), from 0.0.
Matrix reference_transposed_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) s += a(k, i) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

TEST(MatrixKernels, ReportsResolvedClone) {
  const std::string isa = kernel_isa();
  std::printf("[ kernels  ] NN kernels run the %s clone on this host\n",
              isa.c_str());
  RecordProperty("kernel_isa", isa);
  EXPECT_TRUE(isa == "default" || isa == "x86-64-v3") << isa;
}

TEST(MatrixKernels, MatmulIntoMatchesInOrderReferenceBitForBit) {
  util::Rng rng(101);
  Matrix out;
  for (const std::size_t m : kRowShapes) {
    for (const std::size_t kk : kWidthShapes) {
      for (const std::size_t n : kWidthShapes) {
        SCOPED_TRACE(testing::Message() << m << "x" << kk << " * " << kk
                                        << "x" << n);
        const Matrix a = kernel_input(m, kk, rng);
        const Matrix b = kernel_input(kk, n, rng);
        matmul_into(a, b, out);
        expect_same_bits(out, reference_matmul(a, b));
      }
    }
  }
}

TEST(MatrixKernels, TransposedMatmulMatchesInOrderReferenceBitForBit) {
  util::Rng rng(103);
  Matrix out;
  for (const std::size_t m : kRowShapes) {
    for (const std::size_t kk : kWidthShapes) {
      for (const std::size_t n : kWidthShapes) {
        SCOPED_TRACE(testing::Message() << "(" << m << "x" << kk << ")^T * "
                                        << m << "x" << n);
        const Matrix a = kernel_input(m, kk, rng);
        const Matrix b = kernel_input(m, n, rng);
        transposed_matmul_into(a, b, out);
        expect_same_bits(out, reference_transposed_matmul(a, b));
      }
    }
  }
}

TEST(MatrixKernels, SparseSkipPathsMatchInOrderReferenceBitForBit) {
  // At least 4096 entries, three quarters exactly zero: both kernels take
  // their exact-zero skip, which equals the in-order sum for finite
  // operands (adding an exact zero product never changes the sum).
  util::Rng rng(104);
  Matrix a(64, 96);
  for (auto& x : a.data()) {
    x = rng.uniform_int(0, 3) == 0 ? rng.uniform(-2, 2) : 0.0;
  }
  for (const std::size_t n : kWidthShapes) {
    Matrix b(96, n);
    for (auto& x : b.data()) x = rng.uniform(-2, 2);
    Matrix out;
    matmul_into(a, b, out);
    expect_same_bits(out, reference_matmul(a, b));
    Matrix c(64, n);
    for (auto& x : c.data()) x = rng.uniform(-2, 2);
    transposed_matmul_into(a, c, out);
    expect_same_bits(out, reference_transposed_matmul(a, c));
  }
}

}  // namespace
}  // namespace cvsafe::nn
