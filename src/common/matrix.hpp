// Small dense linear algebra used by the thermal solver and the
// spatially-correlated variation generator.
//
// Matrix and LuFactorization are plain dense row-major code: the sparse
// thermal backends (common/sparse.hpp) factor the large RC networks, and
// the dense LU remains their reference twin.  The variation field's
// Cholesky factor is the one cubic start-up cost per chip recipe — 256
// grid points on the paper's 8x8 chip, 1 024 on a 16x16 and 4 096 on a
// 32x32 — so CholeskyFactorization factors in place, in packed row
// panels, with register tiles.
#pragma once

#include <cstddef>
#include <vector>

namespace hayat {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(int rows, int cols);

  /// Square n x n matrix, zero-initialized.
  static Matrix zero(int n) { return Matrix(n, n); }

  /// n x n identity.
  static Matrix identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  /// Matrix-vector product y = A x.  Requires x.size() == cols().
  Vector multiply(const Vector& x) const;

  /// A + B (same shape).
  Matrix add(const Matrix& other) const;

  /// A scaled by s.
  Matrix scaled(double s) const;

  /// Transposed copy.
  Matrix transposed() const;

  /// Raw storage (row-major), e.g. for tests.
  const std::vector<double>& data() const { return data_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting.  Factor once, then solve for
/// many right-hand sides — the transient thermal solver back-substitutes
/// thousands of times per factorization.
class LuFactorization {
 public:
  /// Factors a square matrix.  Throws hayat::Error if singular.
  explicit LuFactorization(const Matrix& a);

  /// Solves A x = b for the factored A.
  Vector solve(const Vector& b) const;

  int size() const { return n_; }

 private:
  int n_ = 0;
  Matrix lu_;
  std::vector<int> perm_;
};

/// Cholesky factorization A = L L^T of a symmetric positive-definite
/// matrix.  Used to sample correlated Gaussian fields: x = L z with
/// z ~ N(0, I) has covariance A.
///
/// L lives in row panels of eight rows, each stored k-major: entry (i, k)
/// of panel b = i / 8 sits at k * 8 + i % 8 past the panel's start, for
/// k < 8 (b + 1) — about half of an n x n matrix.  A's lower triangle is
/// written straight into that storage and factored in place, so no
/// second n x n buffer ever exists.  Every entry is bitwise the
/// column-order factor's: it starts from A(i, j) (plus the jitter on the
/// diagonal), subtracts L(i, k) L(j, k) in ascending k, and is scaled by
/// the same 1 / L(j, j); the tiles only advance 16 such chains at once
/// (DESIGN.md §3.10, "Start-up kernels").
class CholeskyFactorization {
 public:
  /// Factors a symmetric positive-definite matrix (its lower triangle is
  /// read).  Throws hayat::Error if the matrix is not positive definite
  /// (within a small tolerance jitter added to the diagonal for
  /// near-singular covariance matrices).
  explicit CholeskyFactorization(const Matrix& a);

  /// Factors the n x n matrix whose entry (i, j), j <= i, is
  /// lowerEntry(i, j), evaluated once per entry straight into the
  /// factor's storage.
  template <class LowerEntry>
  CholeskyFactorization(int n, LowerEntry&& lowerEntry) : n_(n) {
    allocate();
    for (int i = 0; i < n_; ++i)
      for (int j = 0; j <= i; ++j) panels_[index(i, j)] = lowerEntry(i, j);
    factor();
  }

  /// Returns L z (lower-triangular times vector), each row summed in
  /// ascending column order from 0.
  Vector applyL(const Vector& z) const;

  /// L(i, j) for 0 <= j <= i < size().
  double entry(int i, int j) const { return panels_[index(i, j)]; }

  int size() const { return n_; }

 private:
  static constexpr int kPanelRows = 8;

  /// Offset of L(i, k)'s slot: panel i / 8 starts after the panels
  /// above it, which hold 64, 128, ... entries.
  static std::size_t index(int i, int k) {
    const auto b = static_cast<std::size_t>(i / kPanelRows);
    return 32 * b * (b + 1) + static_cast<std::size_t>(k) * kPanelRows +
           static_cast<std::size_t>(i % kPanelRows);
  }

  void allocate();
  void factor();

  int n_ = 0;
  std::vector<double> panels_;
};

/// Euclidean norm of a vector.
double norm2(const Vector& v);

/// Maximum absolute difference between two equal-length vectors.
double maxAbsDiff(const Vector& a, const Vector& b);

}  // namespace hayat
