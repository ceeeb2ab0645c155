#include "common/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace hayat {

// --- SparseMatrix ---------------------------------------------------------

double SparseMatrix::at(int r, int c) const {
  HAYAT_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "sparse index out of range");
  const auto begin = colIndex_.begin() + rowStart_[static_cast<std::size_t>(r)];
  const auto end =
      colIndex_.begin() + rowStart_[static_cast<std::size_t>(r) + 1];
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - colIndex_.begin())];
}

void SparseMatrix::multiplyInto(const Vector& x, Vector& y) const {
  HAYAT_REQUIRE(static_cast<int>(x.size()) == cols_,
                "sparse matrix-vector dimension mismatch");
  y.resize(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const int end = rowStart_[static_cast<std::size_t>(r) + 1];
    for (int k = rowStart_[static_cast<std::size_t>(r)]; k < end; ++k)
      acc += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(colIndex_[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

Vector SparseMatrix::multiply(const Vector& x) const {
  Vector y;
  multiplyInto(x, y);
  return y;
}

Matrix SparseMatrix::toDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    const int end = rowStart_[static_cast<std::size_t>(r) + 1];
    for (int k = rowStart_[static_cast<std::size_t>(r)]; k < end; ++k)
      out(r, colIndex_[static_cast<std::size_t>(k)]) =
          values_[static_cast<std::size_t>(k)];
  }
  return out;
}

// --- SparseMatrixBuilder --------------------------------------------------

SparseMatrixBuilder::SparseMatrixBuilder(int rows, int cols)
    : rows_(rows), cols_(cols) {
  HAYAT_REQUIRE(rows >= 0 && cols >= 0, "negative matrix dimensions");
}

void SparseMatrixBuilder::add(int r, int c, double value) {
  HAYAT_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "triplet index out of range");
  triplets_.push_back({r, c, value});
}

SparseMatrix SparseMatrixBuilder::build() const {
  // Stable sort keeps duplicates in insertion order, so summing them
  // reproduces the equivalent dense `+=` sequence bitwise.
  std::vector<Triplet> sorted = triplets_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });

  SparseMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.rowStart_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  for (std::size_t i = 0; i < sorted.size();) {
    const int r = sorted[i].row;
    const int c = sorted[i].col;
    double acc = 0.0;
    while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c)
      acc += sorted[i++].value;
    out.colIndex_.push_back(c);
    out.values_.push_back(acc);
    ++out.rowStart_[static_cast<std::size_t>(r) + 1];
  }
  for (int r = 0; r < rows_; ++r)
    out.rowStart_[static_cast<std::size_t>(r) + 1] +=
        out.rowStart_[static_cast<std::size_t>(r)];
  return out;
}

// --- Reverse Cuthill–McKee ------------------------------------------------

namespace {

/// One BFS pass from `start` over the CSR pattern; appends visited
/// vertices to `order` (neighbours by increasing (degree, index)) and
/// returns the index of a vertex in the last level (an eccentricity
/// witness, used to find a pseudo-peripheral seed).
int bfsOrder(const SparseMatrix& a, int start, std::vector<char>& seen,
             std::vector<int>& order) {
  const std::vector<int>& rowStart = a.rowStart();
  const std::vector<int>& colIndex = a.colIndex();
  auto degree = [&](int v) {
    return rowStart[static_cast<std::size_t>(v) + 1] -
           rowStart[static_cast<std::size_t>(v)];
  };

  const std::size_t first = order.size();
  order.push_back(start);
  seen[static_cast<std::size_t>(start)] = 1;
  std::size_t head = first;
  std::vector<int> neighbours;
  while (head < order.size()) {
    const int v = order[head++];
    neighbours.clear();
    const int end = rowStart[static_cast<std::size_t>(v) + 1];
    for (int k = rowStart[static_cast<std::size_t>(v)]; k < end; ++k) {
      const int u = colIndex[static_cast<std::size_t>(k)];
      if (u == v || seen[static_cast<std::size_t>(u)]) continue;
      seen[static_cast<std::size_t>(u)] = 1;
      neighbours.push_back(u);
    }
    std::sort(neighbours.begin(), neighbours.end(), [&](int x, int y) {
      const int dx = degree(x);
      const int dy = degree(y);
      return dx != dy ? dx < dy : x < y;
    });
    order.insert(order.end(), neighbours.begin(), neighbours.end());
  }
  return order.back();
}

}  // namespace

std::vector<int> reverseCuthillMcKee(const SparseMatrix& a) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "RCM requires a square matrix");
  const int n = a.rows();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);

  const std::vector<int>& rowStart = a.rowStart();
  auto degree = [&](int v) {
    return rowStart[static_cast<std::size_t>(v) + 1] -
           rowStart[static_cast<std::size_t>(v)];
  };

  while (static_cast<int>(order.size()) < n) {
    // Pick the minimum-degree unvisited vertex (each pass consumes one
    // whole component, so this covers every component of a disconnected
    // pattern), then hop to a far vertex once — a cheap
    // pseudo-peripheral heuristic.
    int seed = -1;
    for (int v = 0; v < n; ++v)
      if (!seen[static_cast<std::size_t>(v)] &&
          (seed < 0 || degree(v) < degree(seed)))
        seed = v;
    std::vector<char> probe = seen;
    std::vector<int> probeOrder;
    seed = bfsOrder(a, seed, probe, probeOrder);
    bfsOrder(a, seed, seen, order);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

int bandwidthOf(const SparseMatrix& a, const std::vector<int>& perm) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "bandwidth requires a square matrix");
  const int n = a.rows();
  std::vector<int> newIndexOf(static_cast<std::size_t>(n));
  if (perm.empty()) {
    for (int i = 0; i < n; ++i) newIndexOf[static_cast<std::size_t>(i)] = i;
  } else {
    HAYAT_REQUIRE(static_cast<int>(perm.size()) == n,
                  "permutation size mismatch");
    for (int i = 0; i < n; ++i)
      newIndexOf[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
          i;
  }
  int band = 0;
  for (int r = 0; r < n; ++r) {
    const int end = a.rowStart()[static_cast<std::size_t>(r) + 1];
    for (int k = a.rowStart()[static_cast<std::size_t>(r)]; k < end; ++k) {
      const int c = a.colIndex()[static_cast<std::size_t>(k)];
      band = std::max(band, std::abs(newIndexOf[static_cast<std::size_t>(r)] -
                                     newIndexOf[static_cast<std::size_t>(c)]));
    }
  }
  return band;
}

// --- BandedFactorization --------------------------------------------------

BandedFactorization::BandedFactorization(const SparseMatrix& a, int band)
    : n_(a.rows()),
      band_(band),
      band_data_(static_cast<std::size_t>(a.rows()) *
                     static_cast<std::size_t>(2 * band + 1),
                 0.0) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "banded LU requires a square matrix");
  HAYAT_REQUIRE(band >= 0, "negative bandwidth");

  for (int r = 0; r < n_; ++r) {
    const int end = a.rowStart()[static_cast<std::size_t>(r) + 1];
    for (int k = a.rowStart()[static_cast<std::size_t>(r)]; k < end; ++k) {
      const int c = a.colIndex()[static_cast<std::size_t>(k)];
      HAYAT_REQUIRE(std::abs(r - c) <= band_,
                    "matrix entry outside the declared band");
      at(r, c) = a.values()[static_cast<std::size_t>(k)];
    }
  }

  // Right-looking elimination restricted to the band.  Update
  // expressions and zero-factor skips replicate LuFactorization's
  // no-swap path exactly (see sparse.hpp) so the factors match the dense
  // reference bitwise.  The inner loop is blocked two rows at a time:
  // within a fixed pivot k every (r, c) entry receives exactly one
  // update `at(r,c) -= factor_r * at(k,c)`, so sharing one traversal of
  // the pivot row between two target rows reorders independent updates
  // without changing any entry's operation sequence.
  for (int k = 0; k < n_; ++k) {
    const double pivot = at(k, k);
    HAYAT_REQUIRE(std::fabs(pivot) > 1e-300,
                  "zero pivot in banded LU (matrix not diagonally "
                  "dominant?)");
    const double inv = 1.0 / pivot;
    const int rEnd = std::min(n_ - 1, k + band_);
    if (rEnd <= k) continue;  // nothing below the pivot inside the band
    const int cEnd = rEnd;
    const int len = cEnd - k;  // columns k+1..cEnd, contiguous per row
    const double* rowK = &band_data_[bandIndex(k, k + 1)];
    int r = k + 1;
    for (; r + 1 <= rEnd; r += 2) {
      const double f0 = at(r, k) * inv;
      const double f1 = at(r + 1, k) * inv;
      at(r, k) = f0;
      at(r + 1, k) = f1;
      double* row0 = &band_data_[bandIndex(r, k + 1)];
      double* row1 = &band_data_[bandIndex(r + 1, k + 1)];
      if (f0 != 0.0 && f1 != 0.0) {
        for (int c = 0; c < len; ++c) {
          const double p = rowK[c];
          row0[c] -= f0 * p;
          row1[c] -= f1 * p;
        }
      } else if (f0 != 0.0) {
        for (int c = 0; c < len; ++c) row0[c] -= f0 * rowK[c];
      } else if (f1 != 0.0) {
        for (int c = 0; c < len; ++c) row1[c] -= f1 * rowK[c];
      }
    }
    for (; r <= rEnd; ++r) {
      const double factor = at(r, k) * inv;
      at(r, k) = factor;
      if (factor == 0.0) continue;
      double* row = &band_data_[bandIndex(r, k + 1)];
      for (int c = 0; c < len; ++c) row[c] -= factor * rowK[c];
    }
  }

  // The envelope of the factors: per row, the first nonzero column of L
  // and the last nonzero column of U.  Every factor entry outside it is
  // an exact zero, so the sweeps below skip only `0.0 * s[j]` terms.
  lowerStart_.resize(static_cast<std::size_t>(n_));
  upperEnd_.resize(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    int lo = std::max(0, r - band_);
    while (lo < r && at(r, lo) == 0.0) ++lo;
    int hi = std::min(n_ - 1, r + band_);
    while (hi > r && at(r, hi) == 0.0) --hi;
    lowerStart_[static_cast<std::size_t>(r)] = lo;
    upperEnd_[static_cast<std::size_t>(r)] = hi;
  }
}

int BandedFactorization::lowerStart(int r) const {
  HAYAT_REQUIRE(r >= 0 && r < n_, "factor row out of range");
  return lowerStart_[static_cast<std::size_t>(r)];
}

int BandedFactorization::upperEnd(int r) const {
  HAYAT_REQUIRE(r >= 0 && r < n_, "factor row out of range");
  return upperEnd_[static_cast<std::size_t>(r)];
}

double BandedFactorization::factor(int r, int c) const {
  HAYAT_REQUIRE(r >= 0 && r < n_ && c >= 0 && c < n_ &&
                    std::abs(r - c) <= band_,
                "factor entry outside the band");
  return at(r, c);
}

void BandedFactorization::solveInPlace(Vector& x) const {
  HAYAT_REQUIRE(static_cast<int>(x.size()) == n_, "rhs size mismatch");
  // Forward substitution (unit lower triangle), over the envelope.
  for (int i = 0; i < n_; ++i) {
    const double* li = row(i);
    double acc = x[static_cast<std::size_t>(i)];
    for (int j = lowerStart_[static_cast<std::size_t>(i)]; j < i; ++j)
      acc -= li[j] * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc;
  }
  // Back substitution.
  for (int i = n_ - 1; i >= 0; --i) {
    const double* ui = row(i);
    double acc = x[static_cast<std::size_t>(i)];
    const int jEnd = upperEnd_[static_cast<std::size_t>(i)];
    for (int j = i + 1; j <= jEnd; ++j)
      acc -= ui[j] * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc / ui[i];
  }
}

void BandedFactorization::solvePermuted(Vector& x, Vector& scratch,
                                        const std::vector<int>& perm) const {
  HAYAT_DCHECK(static_cast<int>(x.size()) == n_);
  HAYAT_DCHECK(static_cast<int>(perm.size()) == n_);
  HAYAT_DCHECK(static_cast<int>(scratch.size()) >= n_);
  double* s = scratch.data();
  const int* p = perm.data();
  const int* lo = lowerStart_.data();
  // Forward substitution (unit lower triangle), four rows jammed per
  // traversal, each row over its own envelope.  A block's rows first
  // run their private prefixes up to the latest envelope start `jc`,
  // then share one pass over s[jc, i), then pick up the in-block
  // triangle.  Each accumulator still applies its subtractions in
  // ascending j — the solveInPlace sequence — so the jam reorders only
  // operations on *different* accumulators and every element matches
  // bitwise.  A row whose envelope starts inside the block skips the
  // triangle terms before its start, exactly as solveInPlace does.
  int i = 0;
  for (; i + 3 < n_; i += 4) {
    const double* r0 = row(i);
    const double* r1 = row(i + 1);
    const double* r2 = row(i + 2);
    const double* r3 = row(i + 3);
    const int l0 = lo[i];
    const int l1 = lo[i + 1];
    const int l2 = lo[i + 2];
    const int l3 = lo[i + 3];
    const int jc = std::min(i, std::max(std::max(l0, l1), std::max(l2, l3)));
    double a0 = x[static_cast<std::size_t>(p[i])];
    double a1 = x[static_cast<std::size_t>(p[i + 1])];
    double a2 = x[static_cast<std::size_t>(p[i + 2])];
    double a3 = x[static_cast<std::size_t>(p[i + 3])];
    for (int j = l0; j < jc; ++j) a0 -= r0[j] * s[j];
    for (int j = l1; j < jc; ++j) a1 -= r1[j] * s[j];
    for (int j = l2; j < jc; ++j) a2 -= r2[j] * s[j];
    for (int j = l3; j < jc; ++j) a3 -= r3[j] * s[j];
    for (int j = jc; j < i; ++j) {
      const double v = s[j];
      a0 -= r0[j] * v;
      a1 -= r1[j] * v;
      a2 -= r2[j] * v;
      a3 -= r3[j] * v;
    }
    s[i] = a0;
    if (l1 <= i) a1 -= r1[i] * a0;
    if (l2 <= i) a2 -= r2[i] * a0;
    if (l3 <= i) a3 -= r3[i] * a0;
    s[i + 1] = a1;
    if (l2 <= i + 1) a2 -= r2[i + 1] * a1;
    if (l3 <= i + 1) a3 -= r3[i + 1] * a1;
    s[i + 2] = a2;
    if (l3 <= i + 2) a3 -= r3[i + 2] * a2;
    s[i + 3] = a3;
  }
  for (; i < n_; ++i) {
    const double* ri = row(i);
    double acc = x[static_cast<std::size_t>(p[i])];
    for (int j = lo[i]; j < i; ++j) acc -= ri[j] * s[j];
    s[i] = acc;
  }
  // Back substitution.  Row i-1's first subtraction uses the final s[i],
  // which only exists after row i completes, so rows cannot be jammed
  // here without reordering row i-1's ascending-j sequence; the sweep
  // stays row-at-a-time with the scatter fused into the final write.
  const int* hi = upperEnd_.data();
  for (int r = n_ - 1; r >= 0; --r) {
    const double* rr = row(r);
    double acc = s[r];
    for (int j = r + 1; j <= hi[r]; ++j) acc -= rr[j] * s[j];
    const double v = acc / rr[r];
    s[r] = v;
    x[static_cast<std::size_t>(p[r])] = v;
  }
}

template <int L>
void BandedFactorization::solvePermutedLanes(
    double* const* x, double* scratch, const std::vector<int>& perm) const {
  static_assert(L == 2 || L == 4, "lane widths are 2 and 4");
  constexpr std::size_t kLanes = L;
  HAYAT_DCHECK(static_cast<int>(perm.size()) == n_);
  double* s = scratch;
  const int* p = perm.data();
  const int* lo = lowerStart_.data();
  // Forward substitution, rows jammed in pairs exactly as solvePermuted
  // jams them in fours: private prefixes up to the later envelope start
  // `jc`, one shared pass over s[jc, i), then the in-pair triangle.
  int i = 0;
  for (; L == 2 && i + 1 < n_; i += 2) {
    const double* r0 = row(i);
    const double* r1 = row(i + 1);
    const int l0 = lo[i];
    const int l1 = lo[i + 1];
    const int jc = std::min(i, std::max(l0, l1));
    double a0[kLanes];
    double a1[kLanes];
    for (int l = 0; l < L; ++l) {
      a0[l] = x[l][p[i]];
      a1[l] = x[l][p[i + 1]];
    }
    for (int j = l0; j < jc; ++j) {
      const double f = r0[j];
      const double* sj = s + static_cast<std::ptrdiff_t>(j) * L;
      for (int l = 0; l < L; ++l) a0[l] -= f * sj[l];
    }
    for (int j = l1; j < jc; ++j) {
      const double f = r1[j];
      const double* sj = s + static_cast<std::ptrdiff_t>(j) * L;
      for (int l = 0; l < L; ++l) a1[l] -= f * sj[l];
    }
    for (int j = jc; j < i; ++j) {
      const double f0 = r0[j];
      const double f1 = r1[j];
      const double* sj = s + static_cast<std::ptrdiff_t>(j) * L;
      for (int l = 0; l < L; ++l) {
        a0[l] -= f0 * sj[l];
        a1[l] -= f1 * sj[l];
      }
    }
    double* si = s + static_cast<std::ptrdiff_t>(i) * L;
    for (int l = 0; l < L; ++l) si[l] = a0[l];
    if (l1 <= i) {
      const double f = r1[i];
      for (int l = 0; l < L; ++l) a1[l] -= f * a0[l];
    }
    for (int l = 0; l < L; ++l) si[L + l] = a1[l];
  }
  for (; i < n_; ++i) {
    const double* ri = row(i);
    double a[kLanes];
    for (int l = 0; l < L; ++l) a[l] = x[l][p[i]];
    for (int j = lo[i]; j < i; ++j) {
      const double f = ri[j];
      const double* sj = s + static_cast<std::ptrdiff_t>(j) * L;
      for (int l = 0; l < L; ++l) a[l] -= f * sj[l];
    }
    double* si = s + static_cast<std::ptrdiff_t>(i) * L;
    for (int l = 0; l < L; ++l) si[l] = a[l];
  }
  // Back substitution, row at a time as in solvePermuted; the L lanes'
  // chains are independent, so their subtractions and divisions overlap.
  const int* hi = upperEnd_.data();
  for (int r = n_ - 1; r >= 0; --r) {
    const double* rr = row(r);
    double* sr = s + static_cast<std::ptrdiff_t>(r) * L;
    double a[kLanes];
    for (int l = 0; l < L; ++l) a[l] = sr[l];
    for (int j = r + 1; j <= hi[r]; ++j) {
      const double f = rr[j];
      const double* sj = s + static_cast<std::ptrdiff_t>(j) * L;
      for (int l = 0; l < L; ++l) a[l] -= f * sj[l];
    }
    const double d = rr[r];
    for (int l = 0; l < L; ++l) {
      const double v = a[l] / d;
      sr[l] = v;
      x[l][p[r]] = v;
    }
  }
}

template void BandedFactorization::solvePermutedLanes<2>(
    double* const*, double*, const std::vector<int>&) const;
template void BandedFactorization::solvePermutedLanes<4>(
    double* const*, double*, const std::vector<int>&) const;

Vector BandedFactorization::solve(const Vector& b) const {
  Vector x = b;
  solveInPlace(x);
  return x;
}

// --- RcSolver -------------------------------------------------------------

RcSolver::RcSolver(const SparseMatrix& a, std::vector<int> perm, Mode mode)
    : n_(a.rows()), perm_(std::move(perm)) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "RcSolver requires a square matrix");
  if (perm_.empty()) perm_ = reverseCuthillMcKee(a);
  HAYAT_REQUIRE(static_cast<int>(perm_.size()) == n_,
                "permutation size mismatch");
  band_ = bandwidthOf(a, perm_);

  // Permute A into new labels: Ap(i, j) = A(perm[i], perm[j]).
  std::vector<int> newIndexOf(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i)
    newIndexOf[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
        i;
  SparseMatrixBuilder builder(n_, n_);
  for (int r = 0; r < n_; ++r) {
    const int end = a.rowStart()[static_cast<std::size_t>(r) + 1];
    for (int k = a.rowStart()[static_cast<std::size_t>(r)]; k < end; ++k)
      builder.add(newIndexOf[static_cast<std::size_t>(r)],
                  newIndexOf[static_cast<std::size_t>(
                      a.colIndex()[static_cast<std::size_t>(k)])],
                  a.values()[static_cast<std::size_t>(k)]);
  }
  const SparseMatrix permuted = builder.build();

  if (mode == Mode::Dense) {
    dense_ = std::make_unique<LuFactorization>(permuted.toDense());
  } else {
    banded_ = std::make_unique<BandedFactorization>(permuted, band_);
  }
}

void RcSolver::solveInPlace(Vector& x, Vector& scratch) const {
  HAYAT_REQUIRE(static_cast<int>(x.size()) == n_, "rhs size mismatch");
  scratch.resize(static_cast<std::size_t>(n_));
  HAYAT_DCHECK(static_cast<int>(scratch.size()) >= n_);
  if (banded_ != nullptr) {
    banded_->solvePermuted(x, scratch, perm_);
    return;
  }
  for (int i = 0; i < n_; ++i)
    scratch[static_cast<std::size_t>(i)] =
        x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
  scratch = dense_->solve(scratch);  // reference path; allocates
  HAYAT_DCHECK(static_cast<int>(scratch.size()) >= n_);
  for (int i = 0; i < n_; ++i)
    x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
        scratch[static_cast<std::size_t>(i)];
}

Vector RcSolver::solve(const Vector& b) const {
  Vector x = b;
  Vector scratch;
  solveInPlace(x, scratch);
  return x;
}

}  // namespace hayat
