// Sparse linear algebra for the RC thermal networks.
//
// The thermal conductance matrices are structurally sparse — at most
// seven nonzeros per row (four lateral neighbours, vertical couplings,
// diagonal) — while matrix.hpp treats them as dense.  That wastes O(n^3)
// factorization and O(n^2) solve work, and the gap explodes for the
// grid-resolution model (a 16x16 chip at subdivision 4 has 4k+ nodes).
//
// This module provides the fast path:
//
//   SparseMatrix            CSR storage with allocation-free SpMV
//   reverseCuthillMcKee     bandwidth-reducing node ordering
//   BandedFactorization     no-pivot LU confined to the band
//   RcSolver                permutation wrapper that selects the banded
//                           kernel or the dense reference LU
//
// Numerical-equivalence contract: BandedFactorization performs the
// *identical* floating-point operations, in the identical order, that
// LuFactorization performs on the same matrix, merely skipping the
// out-of-band entries that dense elimination provably keeps at exact
// zero; the solves further skip the in-band factor entries outside each
// row's envelope, which are exact zeros too.  RC conductance matrices
// are symmetric and (weakly) diagonally dominant, so dense partial
// pivoting never actually swaps rows; the two paths therefore produce
// bitwise-identical solutions.  RcSolver exploits that to offer a dense
// A/B reference (RcSolver::Mode::Dense, selected per model through
// ThermalConfig::solver) whose sweep outputs are byte-identical to the
// banded default.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.hpp"

namespace hayat {

/// Compressed-sparse-row matrix of doubles.  Rows are sorted by column;
/// duplicate insertions are summed in insertion order (so an assembly
/// that mirrors a dense `+=` sequence reproduces its values bitwise).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t nonZeros() const { return values_.size(); }

  /// Entry lookup (binary search within the row); 0.0 when absent.
  double at(int r, int c) const;

  /// y = A x into a caller-provided buffer (resized to rows()); the
  /// allocation-free SpMV used on hot paths.
  void multiplyInto(const Vector& x, Vector& y) const;

  /// Convenience allocating SpMV.
  Vector multiply(const Vector& x) const;

  /// Dense copy (tests, and the dense reference solver).
  Matrix toDense() const;

  const std::vector<int>& rowStart() const { return rowStart_; }
  const std::vector<int>& colIndex() const { return colIndex_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutableValues() { return values_; }

 private:
  friend class SparseMatrixBuilder;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> rowStart_;   ///< size rows_+1
  std::vector<int> colIndex_;   ///< size nnz, sorted within each row
  std::vector<double> values_;  ///< size nnz
};

/// Triplet accumulator: add entries in any order, duplicates are summed
/// in insertion order at build() time.
class SparseMatrixBuilder {
 public:
  SparseMatrixBuilder(int rows, int cols);

  void add(int r, int c, double value);
  SparseMatrix build() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  struct Triplet {
    int row;
    int col;
    double value;
  };
  std::vector<Triplet> triplets_;
};

/// Reverse Cuthill–McKee ordering of a structurally symmetric matrix.
/// Returns `perm` with perm[newIndex] = oldIndex.  Deterministic: BFS
/// from a pseudo-peripheral vertex, neighbours visited by increasing
/// (degree, index).  Disconnected components are ordered one after the
/// other, each from its own peripheral seed.
std::vector<int> reverseCuthillMcKee(const SparseMatrix& a);

/// Half bandwidth max|i-j| of the pattern under a permutation
/// (perm[newIndex] = oldIndex); identity when perm is empty.
int bandwidthOf(const SparseMatrix& a, const std::vector<int>& perm);

/// No-pivot LU of a banded matrix.  Factor once, then solveInPlace for
/// thousands of right-hand sides with zero heap allocations.
///
/// Only valid for matrices whose dense partial-pivoting LU never swaps
/// rows (e.g. symmetric diagonally dominant RC networks); for those the
/// factorization and solves are bitwise identical to LuFactorization
/// (see file comment).  Throws hayat::Error on a (near-)zero pivot.
class BandedFactorization {
 public:
  /// Factors `a`, which must have all nonzeros within |i-j| <= band.
  BandedFactorization(const SparseMatrix& a, int band);

  int size() const { return n_; }
  int band() const { return band_; }

  /// Solves A x = b where `x` holds b on entry and the solution on
  /// return, row by row over the envelope.  No allocations.
  void solveInPlace(Vector& x) const;

  /// Fused-permutation solve of the DESIGN.md §3.13 envelope sweeps:
  /// the right-hand side is gathered as x[perm[i]] when the forward
  /// sweep first touches row i, both triangular sweeps run on `scratch`
  /// (the permuted domain), and each final back-substituted value
  /// scatters straight to x[perm[i]].  The forward sweep jams four rows
  /// per traversal; every accumulator still applies its subtractions in
  /// ascending j, so the operation sequence per element is exactly
  /// pack -> solveInPlace -> unpack and the results are bitwise equal.
  /// No allocations; `scratch` must already hold at least size()
  /// elements (debug-asserted).
  void solvePermuted(Vector& x, Vector& scratch,
                     const std::vector<int>& perm) const;

  /// solvePermuted for L right-hand sides at once (L = 2 or 4, the two
  /// widths instantiated in sparse.cpp): lane l's right-hand side is
  /// x[l][0, size()) on entry and its solution on return.  The permuted
  /// domain is interleaved, scratch[i * L + l] holding row i of lane l
  /// (size() * L doubles), so each row's factor entries are loaded once
  /// for all lanes and the lanes' divisions overlap in the back sweep.
  /// At two lanes the forward sweep also jams rows in pairs.  Every lane
  /// applies its subtractions in the solvePermuted order (ascending j),
  /// so each lane's solution is bitwise the solvePermuted one.  No
  /// allocations.
  template <int L>
  void solvePermutedLanes(double* const* x, double* scratch,
                          const std::vector<int>& perm) const;

  /// The envelope every sweep runs over: the first column of row r's
  /// nonzero L entries (r when the row has none) and the last column of
  /// its nonzero U entries (r when none).  Factor entries outside it are
  /// exact zeros.
  int lowerStart(int r) const;
  int upperEnd(int r) const;

  /// Factor entry (r, c) inside the band: L below the diagonal (unit
  /// diagonal implied), U on and above it (tests).
  double factor(int r, int c) const;

  /// Convenience allocating solve.
  Vector solve(const Vector& b) const;

 private:
  double& at(int r, int c) { return band_data_[bandIndex(r, c)]; }
  double at(int r, int c) const { return band_data_[bandIndex(r, c)]; }
  std::size_t bandIndex(int r, int c) const {
    return static_cast<std::size_t>(r) *
               static_cast<std::size_t>(2 * band_ + 1) +
           static_cast<std::size_t>(c - r + band_);
  }

  /// Row r addressed by column: row(r)[c] == at(r, c) for |r-c| <= band.
  /// The base offset r*2*band + band stays inside band_data_.
  const double* row(int r) const {
    return band_data_.data() +
           static_cast<std::size_t>(r) * static_cast<std::size_t>(2 * band_) +
           static_cast<std::size_t>(band_);
  }

  int n_ = 0;
  int band_ = 0;
  std::vector<double> band_data_;  ///< row-major band storage
  std::vector<int> lowerStart_;    ///< per row, see lowerStart()
  std::vector<int> upperEnd_;      ///< per row, see upperEnd()
};

/// The solver the thermal models use: one bandwidth-reducing permutation
/// plus either the banded kernel (default) or the dense reference LU.
///
/// Both backends factor the *same* permuted matrix, so their solutions
/// are bitwise identical (see file comment) — the dense path exists to
/// A/B-validate the sparse kernels.
class RcSolver {
 public:
  enum class Mode {
    Banded,  ///< the sparse kernel (default)
    Dense,   ///< the dense reference LU
  };

  /// Factors `a` under `perm` (perm[newIndex] = oldIndex; empty means
  /// compute reverseCuthillMcKee(a) internally).
  RcSolver(const SparseMatrix& a, std::vector<int> perm, Mode mode);

  int size() const { return n_; }
  int band() const { return band_; }
  bool usesDense() const { return dense_ != nullptr; }
  /// The banded factors of the permuted matrix; null on the dense path.
  const BandedFactorization* banded() const { return banded_.get(); }
  const std::vector<int>& permutation() const { return perm_; }

  /// Solves A x = b where `x` holds b on entry and the solution on
  /// return.  `scratch` is resized to size() and clobbered; reusing it
  /// across calls makes the banded path allocation-free.  The banded
  /// backend runs the fused-permutation blocked sweeps (§3.13): no
  /// separate permute passes, bitwise-identical results.
  void solveInPlace(Vector& x, Vector& scratch) const;

  /// Convenience allocating solve.
  Vector solve(const Vector& b) const;

 private:
  int n_ = 0;
  int band_ = 0;
  std::vector<int> perm_;  ///< perm_[newIndex] = oldIndex
  std::unique_ptr<BandedFactorization> banded_;
  std::unique_ptr<LuFactorization> dense_;  ///< of the permuted matrix
};

}  // namespace hayat
