#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "cvsafe/util/rng.hpp"

/// \file matrix.hpp
/// Dense row-major matrix used by the neural-network substrate.
///
/// The NN-based planners of the paper are trained with external tooling;
/// here the training stack is built from scratch so the whole pipeline
/// (data generation -> training -> deployment inside the compound planner)
/// is reproducible in this repository with no dependencies.

namespace cvsafe::nn {

/// Row-major dense matrix of doubles. Rows are samples in batch usage.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled from \p values (row-major). Size must match.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> values);

  /// 1 x n row vector.
  static Matrix row_vector(const std::vector<double>& values);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// Glorot/Xavier-uniform initialization: U(-limit, limit) with
  /// limit = sqrt(6 / (fan_in + fan_out)).
  static Matrix glorot(std::size_t rows, std::size_t cols, util::Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  /// Reshapes to rows x cols, reusing the existing heap block whenever the
  /// new element count fits in capacity. Contents are unspecified after a
  /// resize (kernels writing "into" a matrix overwrite every element).
  void resize(std::size_t rows, std::size_t cols);

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Matrix product (this: m x k, other: k x n). Dimensions are asserted.
  Matrix matmul(const Matrix& other) const;

  /// Product with the transpose of \p other (this: m x k, other: n x k).
  Matrix matmul_transposed(const Matrix& other) const;

  /// Transposed-this product (this: k x m, other: k x n -> m x n).
  Matrix transposed_matmul(const Matrix& other) const;

  Matrix transpose() const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double s) const;

  /// Adds a 1 x cols row vector to every row (bias broadcast).
  void add_row_broadcast(const Matrix& row);

  /// Column-wise sum producing a 1 x cols matrix.
  Matrix column_sums() const;

  /// Elementwise (Hadamard) product.
  Matrix hadamard(const Matrix& other) const;

  /// Largest absolute entry (0 for empty).
  double max_abs() const;

  friend bool operator==(const Matrix& a, const Matrix& b) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// out = a * b (a: m x k, b: k x n), written into caller-provided storage.
/// \p out is resized to m x n and fully overwritten; once its capacity is
/// warm the call performs no heap allocation. Produces bit-identical
/// results to Matrix::matmul (same per-element accumulation order).
/// \p out must not alias \p a or \p b.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * b^T (a: m x k, b: n x k), same storage contract as
/// matmul_into; bit-identical to Matrix::matmul_transposed.
void matmul_transposed_into(const Matrix& a, const Matrix& b, Matrix& out);

/// Instruction-set clone the NN kernels (the matmuls above, the activation
/// kernels, Matrix::transposed_matmul) run on this host: "x86-64-v3" (AVX2
/// + FMA) or "default" (baseline x86-64, and every build without runtime
/// dispatch). Both clones produce bit-identical results.
const char* kernel_isa() noexcept;

}  // namespace cvsafe::nn
