#ifndef BACO_LINALG_MATRIX_HPP_
#define BACO_LINALG_MATRIX_HPP_

/**
 * @file
 * Minimal dense linear algebra used by the Gaussian-process substrate.
 *
 * Row-major dense matrix plus the handful of BLAS-like operations the GP
 * needs. Sizes in this library are small (kernel matrices up to a few
 * hundred rows); the row-major layout is deliberate so the hot loops in
 * cholesky.cpp and kernel.cpp stream rows contiguously — a compiler can
 * vectorize the inner dot/saxpy kernels without any explicit intrinsics.
 */

#include <cassert>
#include <cstddef>
#include <vector>

namespace baco {

/** Dense row-major matrix of doubles. */
class Matrix {
 public:
  Matrix() = default;

  /** rows x cols matrix, all entries initialized to fill. */
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /** Contiguous row i (row-major storage), for vectorizable inner loops. */
  double* row(std::size_t i) {
    assert(i < rows_);
    return data_.data() + i * cols_;
  }
  const double* row(std::size_t i) const {
    assert(i < rows_);
    return data_.data() + i * cols_;
  }

  /** Raw storage access (row-major). */
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /**
   * Grow (or shrink) in place to new_rows x new_cols, preserving the
   * overlapping top-left block; new entries are zero. Row strides change,
   * so this is an O(rows*cols) repack — used by the incremental Cholesky
   * append, where an O(n^2) copy matches the cost of the update itself.
   */
  void resize_preserving(std::size_t new_rows, std::size_t new_cols);

  /** The n x n identity. */
  static Matrix identity(std::size_t n);

  /** Matrix transpose. */
  Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/** y = A x. Requires x.size() == A.cols(). */
std::vector<double> mat_vec(const Matrix& a, const std::vector<double>& x);

/** C = A B. Requires a.cols() == b.rows(). */
Matrix mat_mat(const Matrix& a, const Matrix& b);

/** Dot product of two equal-length vectors. */
double dot(const std::vector<double>& a, const std::vector<double>& b);

/** Dot product over raw ranges (the inner kernel of the triangular
 *  solves; unrolled 4-wide so the compiler emits vector FMAs). */
double dot_n(const double* a, const double* b, std::size_t n);

/**
 * out[r] = dot_n(a, b[r], n) for four ranges b[0..3], bit for bit: each
 * right-hand side keeps dot_n's accumulation order, while a[] is read once
 * per step and the four reductions run as independent chains (the kernel
 * of the blocked triangular solve).
 */
void dot_n4(const double* a, const double* const* b, std::size_t n,
            double* out);

/** Elementwise a + s*b. */
std::vector<double> axpy(const std::vector<double>& a, double s,
                         const std::vector<double>& b);

/** Euclidean norm. */
double norm2(const std::vector<double>& v);

}  // namespace baco

#endif  // BACO_LINALG_MATRIX_HPP_
