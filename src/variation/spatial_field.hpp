// Spatially-correlated Gaussian random field over chip grid points.
//
// Implements the process-variation structure of Xiong/Zolotov [25] as used
// by the paper (Section III): the chip is partitioned into Nchip x Nchip
// grid points, each carrying a Gaussian process parameter theta(u,v) with
// mean mu, standard deviation sigma, and distance-decaying spatial
// correlation rho.  The total variance additionally splits into a chip-wide
// (global, die-to-die) share and an uncorrelated (nugget, within-die random
// dopant fluctuation) share, the standard decomposition for such models.
//
// Sampling draws x = mu + L z where L is the Cholesky factor of the
// covariance matrix — exact for any correlation structure at these sizes.
// The covariance is written straight into the factor's storage and
// factored in place (common/matrix.hpp), so a sampler never holds the
// n x n covariance next to its factor.
#pragma once

#include "common/geometry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace hayat {

/// Configuration for the correlated Gaussian field.
struct SpatialFieldConfig {
  GridShape grid;              ///< grid-point tiling of the chip
  double pointSpacingX = 1.0;  ///< physical spacing between grid points [m]
  double pointSpacingY = 1.0;
  double mean = 1.0;            ///< mu of theta
  double sigma = 0.1;           ///< total standard deviation of theta
  double correlationRange = 1.0;  ///< e-folding distance of correlation [m]
  double globalFraction = 0.2;  ///< variance share that is chip-wide
  double nuggetFraction = 0.1;  ///< variance share that is uncorrelated
};

/// Generator of correlated field samples; factors the covariance once and
/// then produces per-chip samples cheaply.
class SpatialFieldSampler {
 public:
  explicit SpatialFieldSampler(const SpatialFieldConfig& config);

  /// Samples one field realization (one chip's theta map, row-major over
  /// the grid points).
  Vector sample(Rng& rng) const;

  /// The covariance between grid points a and b implied by the config —
  /// the expression the factored covariance is built from.
  double covariance(int a, int b) const;

  const SpatialFieldConfig& config() const { return config_; }

 private:
  SpatialFieldConfig config_;
  CholeskyFactorization chol_;
};

}  // namespace hayat
