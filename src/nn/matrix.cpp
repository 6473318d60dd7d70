#include "cvsafe/nn/matrix.hpp"

#include "isa_dispatch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>

#if defined(__GNUC__) || defined(__clang__)
#define CVSAFE_RESTRICT __restrict__
#else
#define CVSAFE_RESTRICT
#endif

namespace cvsafe::nn {

namespace {

/// Fraction-of-zeros probe for the sparsity fast path. The exact-zero skip
/// in the accumulation kernels only pays off when a sizeable share of the
/// left operand is zero; on dense NN weight matrices the per-element branch
/// mispredicts and pessimizes the hot loop, so callers gate on this.
bool mostly_zero(const std::vector<double>& values) {
  if (values.size() < 4096) return false;  // probe cost dominates small inputs
  std::size_t zeros = 0;
  for (const double v : values) {
    zeros += (v == 0.0) ? 1 : 0;  // cvsafe-lint: allow(float-compare)
  }
  return zeros * 2 >= values.size();
}

/// Scalar tail for matmul_transposed_into: output columns [j0, n). Four
/// independent accumulator chains per pass hide FP-add latency; each output
/// element is still an in-order dot product over k, bit-identical to the
/// historical single-column kernel.
void transposed_cols_scalar(const double* CVSAFE_RESTRICT ap,
                            const double* CVSAFE_RESTRICT bp,
                            double* CVSAFE_RESTRICT op, std::size_t m,
                            std::size_t kk, std::size_t n, std::size_t j0) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* CVSAFE_RESTRICT arow = ap + i * kk;
    std::size_t j = j0;
    for (; j + 4 <= n; j += 4) {
      const double* CVSAFE_RESTRICT b0 = bp + (j + 0) * kk;
      const double* CVSAFE_RESTRICT b1 = bp + (j + 1) * kk;
      const double* CVSAFE_RESTRICT b2 = bp + (j + 2) * kk;
      const double* CVSAFE_RESTRICT b3 = bp + (j + 3) * kk;
      double s0 = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      double s3 = 0.0;
      for (std::size_t k = 0; k < kk; ++k) {
        const double av = arow[k];
        s0 += av * b0[k];
        s1 += av * b1[k];
        s2 += av * b2[k];
        s3 += av * b3[k];
      }
      op[i * n + j + 0] = s0;
      op[i * n + j + 1] = s1;
      op[i * n + j + 2] = s2;
      op[i * n + j + 3] = s3;
    }
    for (; j < n; ++j) {
      const double* CVSAFE_RESTRICT brow = bp + j * kk;
      double s = 0.0;
      for (std::size_t k = 0; k < kk; ++k) s += arow[k] * brow[k];
      op[i * n + j] = s;
    }
  }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
  assert(data_.size() == rows_ * cols_);
}

Matrix Matrix::row_vector(const std::vector<double>& values) {
  return Matrix(1, values.size(), values);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::glorot(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  const double limit =
      std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& x : m.data_) x = rng.uniform(-limit, limit);
  return m;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

CVSAFE_NN_KERNEL
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  assert(&out != &a && &out != &b);
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t n = b.cols();
  out.resize(m, n);
  std::fill(out.data().begin(), out.data().end(), 0.0);

  const double* CVSAFE_RESTRICT ap = a.data().data();
  const double* CVSAFE_RESTRICT bp = b.data().data();
  double* CVSAFE_RESTRICT op = out.data().data();

  // Accumulation order per output element is k ascending in both paths, so
  // results are bit-identical regardless of which path runs (adding an
  // exact zero never changes a finite accumulator).
  if (mostly_zero(a.data())) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < kk; ++k) {
        const double av = ap[i * kk + k];
        // cvsafe-lint: allow(float-compare) exact-zero sparsity skip
        if (av == 0.0) continue;
        const double* CVSAFE_RESTRICT brow = bp + k * n;
        double* CVSAFE_RESTRICT orow = op + i * n;
        for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
    return;
  }

  // Dense path: branch-free inner loop, blocked over columns so the output
  // row tile and the B tile stay cache-resident across the k sweep.
  constexpr std::size_t kColBlock = 256;
  for (std::size_t i = 0; i < m; ++i) {
    double* CVSAFE_RESTRICT orow = op + i * n;
    for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
      const std::size_t j1 = std::min(j0 + kColBlock, n);
      for (std::size_t k = 0; k < kk; ++k) {
        const double av = ap[i * kk + k];
        const double* CVSAFE_RESTRICT brow = bp + k * n;
        for (std::size_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

CVSAFE_NN_KERNEL
void matmul_transposed_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  assert(&out != &a && &out != &b);
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t n = b.rows();
  out.resize(m, n);

  const double* CVSAFE_RESTRICT ap = a.data().data();
  const double* CVSAFE_RESTRICT bp = b.data().data();
  double* CVSAFE_RESTRICT op = out.data().data();

  // A dot-product loop over k cannot use SIMD without reordering the sum,
  // which would break bit-identity with the dense kernel. Instead, repack
  // an 8-column tile of b into k-major order on the stack: the inner loop
  // then reads eight consecutive doubles per k and keeps eight accumulator
  // chains in one vector register — the same axpy shape that lets the
  // dense kernel vectorize. Lane c sums column j0+c's products over k in
  // ascending order, so every output element accumulates in exactly the
  // historical order and results stay bit-identical. The pack touches each
  // b element once per tile and is amortized over all m rows.
  constexpr std::size_t kTileCols = 8;
  constexpr std::size_t kMaxPackedK = 256;
  std::size_t j0 = 0;
  if (kk <= kMaxPackedK) {
    double tile[kTileCols * kMaxPackedK];
    for (; j0 + kTileCols <= n; j0 += kTileCols) {
      for (std::size_t c = 0; c < kTileCols; ++c) {
        const double* CVSAFE_RESTRICT brow = bp + (j0 + c) * kk;
        for (std::size_t k = 0; k < kk; ++k) tile[k * kTileCols + c] = brow[k];
      }
      for (std::size_t i = 0; i < m; ++i) {
        const double* CVSAFE_RESTRICT arow = ap + i * kk;
        double* CVSAFE_RESTRICT orow = op + i * n + j0;
        for (std::size_t c = 0; c < kTileCols; ++c) orow[c] = 0.0;
        for (std::size_t k = 0; k < kk; ++k) {
          const double av = arow[k];
          const double* CVSAFE_RESTRICT trow = tile + k * kTileCols;
          for (std::size_t c = 0; c < kTileCols; ++c) orow[c] += av * trow[c];
        }
      }
    }
  }
  // Remainder columns (and the rare kk > kMaxPackedK case) take the scalar
  // multi-chain path — same per-element order, just without the repack.
  transposed_cols_scalar(ap, bp, op, m, kk, n, j0);
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_into(*this, other, out);
  return out;
}

Matrix Matrix::matmul_transposed(const Matrix& other) const {
  Matrix out;
  matmul_transposed_into(*this, other, out);
  return out;
}

CVSAFE_NN_KERNEL
Matrix Matrix::transposed_matmul(const Matrix& other) const {
  assert(rows_ == other.rows_);
  Matrix out(cols_, other.cols_);
  // The left operand here is a backpropagated gradient; with ReLU-family
  // activations those are legitimately sparse, so the exact-zero skip is
  // gated on measured density rather than applied unconditionally.
  const bool sparse = mostly_zero(data_);
  for (std::size_t k = 0; k < rows_; ++k) {
    const double* CVSAFE_RESTRICT arow = &data_[k * cols_];
    const double* CVSAFE_RESTRICT brow = &other.data_[k * other.cols_];
    for (std::size_t i = 0; i < cols_; ++i) {
      const double a = arow[i];
      // cvsafe-lint: allow(float-compare) exact-zero sparsity skip
      if (sparse && a == 0.0) continue;
      double* CVSAFE_RESTRICT orow = &out.data_[i * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  for (auto& x : out.data_) x *= s;
  return out;
}

void Matrix::add_row_broadcast(const Matrix& row) {
  assert(row.rows_ == 1 && row.cols_ == cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) (*this)(i, j) += row(0, j);
}

Matrix Matrix::column_sums() const {
  Matrix out(1, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(0, j) += (*this)(i, j);
  return out;
}

Matrix Matrix::hadamard(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

const char* kernel_isa() noexcept {
#if CVSAFE_NN_DISPATCH
  // The predicate the target_clones resolver tests for the v3 clone.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
#endif
  return "default";
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << 'x' << m.cols() << ")[";
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (i) os << "; ";
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j) os << ' ';
      os << m(i, j);
    }
  }
  return os << ']';
}

}  // namespace cvsafe::nn
