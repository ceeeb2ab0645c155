#include "common/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace hayat {

Matrix::Matrix(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            0.0) {
  HAYAT_REQUIRE(rows >= 0 && cols >= 0, "negative matrix dimensions");
}

Matrix Matrix::identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::multiply(const Vector& x) const {
  HAYAT_REQUIRE(static_cast<int>(x.size()) == cols_,
                "matrix-vector dimension mismatch");
  Vector y(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[static_cast<std::size_t>(r) *
                               static_cast<std::size_t>(cols_)];
    for (int c = 0; c < cols_; ++c) acc += row[c] * x[static_cast<std::size_t>(c)];
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

Matrix Matrix::add(const Matrix& other) const {
  HAYAT_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                "matrix addition shape mismatch");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] + other.data_[i];
  return out;
}

Matrix Matrix::scaled(double s) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

LuFactorization::LuFactorization(const Matrix& a)
    : n_(a.rows()), lu_(a), perm_(static_cast<std::size_t>(a.rows())) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  for (int i = 0; i < n_; ++i) perm_[static_cast<std::size_t>(i)] = i;

  for (int k = 0; k < n_; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    int pivot = k;
    double best = std::fabs(lu_(k, k));
    for (int r = k + 1; r < n_; ++r) {
      const double mag = std::fabs(lu_(r, k));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    HAYAT_REQUIRE(best > 1e-300, "singular matrix in LU factorization");
    if (pivot != k) {
      for (int c = 0; c < n_; ++c) std::swap(lu_(k, c), lu_(pivot, c));
      std::swap(perm_[static_cast<std::size_t>(k)],
                perm_[static_cast<std::size_t>(pivot)]);
    }
    const double inv = 1.0 / lu_(k, k);
    for (int r = k + 1; r < n_; ++r) {
      const double factor = lu_(r, k) * inv;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (int c = k + 1; c < n_; ++c) lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  HAYAT_REQUIRE(static_cast<int>(b.size()) == n_, "rhs size mismatch");
  Vector x(static_cast<std::size_t>(n_));
  // Apply permutation, forward substitution (unit lower triangle).
  for (int i = 0; i < n_; ++i) {
    double acc = b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    for (int j = 0; j < i; ++j) acc -= lu_(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc;
  }
  // Back substitution.
  for (int i = n_ - 1; i >= 0; --i) {
    double acc = x[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n_; ++j)
      acc -= lu_(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc / lu_(i, i);
  }
  return x;
}

namespace {

int squareSize(const Matrix& a) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  return a.rows();
}

}  // namespace

CholeskyFactorization::CholeskyFactorization(const Matrix& a)
    : CholeskyFactorization(squareSize(a),
                            [&a](int i, int j) { return a(i, j); }) {}

void CholeskyFactorization::allocate() {
  HAYAT_REQUIRE(n_ >= 0, "negative matrix dimensions");
  const int panels = (n_ + kPanelRows - 1) / kPanelRows;
  panels_.assign(index(panels * kPanelRows, 0), 0.0);
}

void CholeskyFactorization::factor() {
  constexpr int R = kPanelRows;
  // Small diagonal jitter makes near-singular covariance matrices (long
  // correlation ranges) factor robustly without visibly changing samples.
  double maxDiag = 0.0;
  for (int i = 0; i < n_; ++i)
    maxDiag = std::max(maxDiag, std::fabs(panels_[index(i, i)]));
  const double jitter = 1e-10 * (maxDiag > 0.0 ? maxDiag : 1.0);

  // Columns j and j + 1 at a time.  Entries (i, k) with k < j hold L and
  // the rest still hold A.  Row i's entries sit R apart in its panel.
  double* const l = panels_.data();
  for (int j = 0; j < n_; j += 2) {
    const double* rowJ = l + index(j, 0);
    double diag = l[index(j, j)] + jitter;
    for (int k = 0; k < j; ++k) diag -= rowJ[k * R] * rowJ[k * R];
    HAYAT_REQUIRE(diag > 0.0, "matrix not positive definite in Cholesky");
    const double ljj = std::sqrt(diag);
    l[index(j, j)] = ljj;
    const double inv0 = 1.0 / ljj;
    if (j + 1 == n_) break;

    // Row j + 1: L(j+1, j), then the second diagonal entry, whose chain
    // ends with the k = j product.
    const double* rowJ1 = l + index(j + 1, 0);
    double acc = l[index(j + 1, j)];
    for (int k = 0; k < j; ++k) acc -= rowJ1[k * R] * rowJ[k * R];
    const double l10 = acc * inv0;
    l[index(j + 1, j)] = l10;
    diag = l[index(j + 1, j + 1)] + jitter;
    for (int k = 0; k <= j; ++k) diag -= rowJ1[k * R] * rowJ1[k * R];
    HAYAT_REQUIRE(diag > 0.0, "matrix not positive definite in Cholesky");
    const double l11 = std::sqrt(diag);
    l[index(j + 1, j + 1)] = l11;
    const double inv1 = 1.0 / l11;

    // The rest of the diagonal panel, one row at a time.
    const int panelEnd = std::min(n_, (j / R + 1) * R);
    for (int i = j + 2; i < panelEnd; ++i) {
      double* rowI = l + index(i, 0);
      double a0 = rowI[j * R];
      double a1 = rowI[(j + 1) * R];
      for (int k = 0; k < j; ++k) {
        a0 -= rowI[k * R] * rowJ[k * R];
        a1 -= rowI[k * R] * rowJ1[k * R];
      }
      const double li0 = a0 * inv0;
      a1 -= li0 * l10;
      rowI[j * R] = li0;
      rowI[(j + 1) * R] = a1 * inv1;
    }

    // Every panel below in 8 x 2 register tiles: per k, one contiguous
    // 8-row slice against L(j, k) and L(j+1, k) — 16 independent chains.
    // The last panel's rows past n are zero and stay zero.
    for (int i0 = panelEnd; i0 < n_; i0 += R) {
      double* panel = l + index(i0, 0);
      double* colJ = panel + j * R;
      double* colJ1 = colJ + R;
      double a0 = colJ[0], a1 = colJ[1], a2 = colJ[2], a3 = colJ[3];
      double a4 = colJ[4], a5 = colJ[5], a6 = colJ[6], a7 = colJ[7];
      double b0 = colJ1[0], b1 = colJ1[1], b2 = colJ1[2], b3 = colJ1[3];
      double b4 = colJ1[4], b5 = colJ1[5], b6 = colJ1[6], b7 = colJ1[7];
      const double* x = panel;
      for (int k = 0; k < j; ++k, x += R) {
        const double u = rowJ[k * R];
        const double v = rowJ1[k * R];
        a0 -= x[0] * u;
        a1 -= x[1] * u;
        a2 -= x[2] * u;
        a3 -= x[3] * u;
        a4 -= x[4] * u;
        a5 -= x[5] * u;
        a6 -= x[6] * u;
        a7 -= x[7] * u;
        b0 -= x[0] * v;
        b1 -= x[1] * v;
        b2 -= x[2] * v;
        b3 -= x[3] * v;
        b4 -= x[4] * v;
        b5 -= x[5] * v;
        b6 -= x[6] * v;
        b7 -= x[7] * v;
      }
      const double accJ[R] = {a0, a1, a2, a3, a4, a5, a6, a7};
      const double accJ1[R] = {b0, b1, b2, b3, b4, b5, b6, b7};
      for (int q = 0; q < R; ++q) {
        const double li0 = accJ[q] * inv0;
        colJ[q] = li0;
        colJ1[q] = (accJ1[q] - li0 * l10) * inv1;
      }
    }
  }
}

Vector CholeskyFactorization::applyL(const Vector& z) const {
  HAYAT_REQUIRE(static_cast<int>(z.size()) == n_, "vector size mismatch");
  constexpr int R = kPanelRows;
  Vector out(static_cast<std::size_t>(n_), 0.0);
  for (int i0 = 0; i0 < n_; i0 += R) {
    const double* panel = panels_.data() + index(i0, 0);
    // Columns left of the panel: eight rows' chains in one pass.
    double acc[R];
    for (int q = 0; q < R; ++q) acc[q] = 0.0;
    for (int k = 0; k < i0; ++k) {
      const double zk = z[static_cast<std::size_t>(k)];
      for (int q = 0; q < R; ++q) acc[q] += panel[k * R + q] * zk;
    }
    // Each row's chain continues to its diagonal.
    for (int q = 0; q < R && i0 + q < n_; ++q) {
      double a = acc[q];
      for (int k = i0; k <= i0 + q; ++k)
        a += panel[k * R + q] * z[static_cast<std::size_t>(k)];
      out[static_cast<std::size_t>(i0 + q)] = a;
    }
  }
  return out;
}

double norm2(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double maxAbsDiff(const Vector& a, const Vector& b) {
  HAYAT_REQUIRE(a.size() == b.size(), "vector size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

}  // namespace hayat
