#include "cvsafe/nn/matrix.hpp"

#include "dense_kernel.hpp"
#include "isa_dispatch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>

namespace cvsafe::nn {

namespace {

using kernel::mostly_zero;

/// R output rows (columns i0.. of a) x W output columns (j0.. of b) of
/// a^T b: out_ij = 0.0 + a_0i * b_0j + a_1i * b_1j + ..., k ascending,
/// with the tile's sums in registers across the k sweep. \p a and \p b
/// point at the tile's first column of row 0 (m and n values per row).
template <std::size_t R, std::size_t W>
CVSAFE_ALWAYS_INLINE void transposed_tile(
    const double* CVSAFE_RESTRICT a, std::size_t m,
    const double* CVSAFE_RESTRICT b, std::size_t n, std::size_t kk,
    double* CVSAFE_RESTRICT out) {
  double acc[R][W] = {};  // +0.0
  for (std::size_t k = 0; k < kk; ++k) {
    const double* CVSAFE_RESTRICT ak = a + k * m;
    const double* CVSAFE_RESTRICT bk = b + k * n;
    for (std::size_t r = 0; r < R; ++r) {
      const double av = ak[r];
      for (std::size_t c = 0; c < W; ++c) acc[r][c] += av * bk[c];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < W; ++c) out[r * n + c] = acc[r][c];
  }
}

/// R output rows of a^T b, every column: 8- and 4-column tiles, then
/// single columns.
template <std::size_t R>
CVSAFE_ALWAYS_INLINE void transposed_rows(
    const double* CVSAFE_RESTRICT a, std::size_t m,
    const double* CVSAFE_RESTRICT b, std::size_t n, std::size_t kk,
    double* CVSAFE_RESTRICT out) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) transposed_tile<R, 8>(a, m, b + j, n, kk, out + j);
  if (j + 4 <= n) {
    transposed_tile<R, 4>(a, m, b + j, n, kk, out + j);
    j += 4;
  }
  for (; j < n; ++j) transposed_tile<R, 1>(a, m, b + j, n, kk, out + j);
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

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_into(*this, other, out);
  return out;
}

CVSAFE_NN_KERNEL
void transposed_matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  assert(&out != &a && &out != &b);
  const std::size_t kk = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  out.resize(m, n);

  const double* CVSAFE_RESTRICT ap = a.data().data();
  const double* CVSAFE_RESTRICT bp = b.data().data();
  double* CVSAFE_RESTRICT op = out.data().data();

  // The left operand is a backpropagated gradient; with ReLU-family
  // activations those are legitimately sparse, so the exact-zero skip is
  // gated on measured density rather than applied unconditionally.
  if (mostly_zero(a.data())) {
    std::fill(out.data().begin(), out.data().end(), 0.0);
    for (std::size_t k = 0; k < kk; ++k) {
      const double* CVSAFE_RESTRICT arow = ap + k * m;
      const double* CVSAFE_RESTRICT brow = bp + k * n;
      for (std::size_t i = 0; i < m; ++i) {
        const double av = arow[i];
        // cvsafe-lint: allow(float-compare) exact-zero sparsity skip
        if (av == 0.0) continue;
        double* CVSAFE_RESTRICT orow = op + i * n;
        for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
    return;
  }

  // Dense path: register tiles of four output rows (columns of a) by 8,
  // 4 or 1 output columns (columns of b), each held across the whole k
  // sweep, so an output is stored once instead of once per k.
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) transposed_rows<4>(ap + i, m, bp, n, kk, op + i * n);
  for (; i < m; ++i) transposed_rows<1>(ap + i, m, bp, n, kk, op + i * n);
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
