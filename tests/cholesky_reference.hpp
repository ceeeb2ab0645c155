// Column-order Cholesky reference, kept on the test side: the plain
// loops CholeskyFactorization's in-place tiled factor is pinned against
// bit for bit (Cholesky.TiledFactorIsBitwiseTheColumnOrderReference in
// tests/test_variation.cpp), plus the dense L and the triangular solve
// that only tests use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"
#include "common/matrix.hpp"

namespace hayat::testref {

/// L of A = L L^T, one column at a time: each entry starts from A(i, j)
/// (plus the diagonal jitter), subtracts L(i, k) L(j, k) in ascending k
/// and is scaled by 1 / L(j, j).
inline Matrix columnOrderCholesky(const Matrix& a) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const int n = a.rows();
  Matrix l(n, n);
  double maxDiag = 0.0;
  for (int i = 0; i < n; ++i) maxDiag = std::max(maxDiag, std::fabs(a(i, i)));
  const double jitter = 1e-10 * (maxDiag > 0.0 ? maxDiag : 1.0);
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (int k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    HAYAT_REQUIRE(diag > 0.0, "matrix not positive definite in Cholesky");
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (int i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (int k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc * inv;
    }
  }
  return l;
}

/// L z, each row a serial chain in ascending column order from 0.
inline Vector columnOrderApplyL(const Matrix& l, const Vector& z) {
  const int n = l.rows();
  Vector out(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j <= i; ++j) acc += l(i, j) * z[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i)] = acc;
  }
  return out;
}

/// The factor as a dense lower-triangular matrix (zeros above).
inline Matrix lowerOf(const CholeskyFactorization& chol) {
  const int n = chol.size();
  Matrix l(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) l(i, j) = chol.entry(i, j);
  return l;
}

/// Solves (L L^T) x = b by forward then back substitution.
inline Vector choleskySolve(const Matrix& l, const Vector& b) {
  const int n = l.rows();
  Vector y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    double acc = b[static_cast<std::size_t>(i)];
    for (int j = 0; j < i; ++j) acc -= l(i, j) * y[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc / l(i, i);
  }
  Vector x(static_cast<std::size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    double acc = y[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j)
      acc -= l(j, i) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc / l(i, i);
  }
  return x;
}

}  // namespace hayat::testref
