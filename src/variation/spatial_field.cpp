#include "variation/spatial_field.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace hayat {

namespace {

/// The covariance of two grid points `drow` rows and `dcol` columns
/// apart: global share + spatial share * exp(-distance / range), plus
/// the nugget at zero offset (a point with itself).  Negating an offset
/// negates dx or dy exactly, so the matrix is bitwise symmetric.
double covarianceAtOffset(const SpatialFieldConfig& config, int drow,
                          int dcol) {
  const double var = config.sigma * config.sigma;
  const double varGlobal = var * config.globalFraction;
  const double varNugget = var * config.nuggetFraction;
  const double varSpatial = var - varGlobal - varNugget;
  const double dx = dcol * config.pointSpacingX;
  const double dy = drow * config.pointSpacingY;
  const double dist = std::sqrt(dx * dx + dy * dy);
  double c = varGlobal + varSpatial * std::exp(-dist / config.correlationRange);
  if (drow == 0 && dcol == 0) c += varNugget;
  return c;
}

/// Factors the field's covariance.  It depends only on the offset
/// between two points, so each of the (2 rows - 1) x (2 cols - 1)
/// offsets is evaluated once and the n x n lower triangle is filled
/// from that table straight into the factor's storage.
CholeskyFactorization factorCovariance(const SpatialFieldConfig& config) {
  HAYAT_REQUIRE(config.sigma >= 0.0, "sigma must be non-negative");
  HAYAT_REQUIRE(config.correlationRange > 0.0,
                "correlation range must be positive");
  HAYAT_REQUIRE(config.globalFraction >= 0.0 && config.nuggetFraction >= 0.0 &&
                    config.globalFraction + config.nuggetFraction <= 1.0,
                "variance fractions must be in [0,1] and sum to <= 1");
  const GridShape& grid = config.grid;
  const int width = 2 * grid.cols() - 1;
  std::vector<double> byOffset(
      static_cast<std::size_t>(2 * grid.rows() - 1) *
      static_cast<std::size_t>(width));
  for (int drow = 1 - grid.rows(); drow < grid.rows(); ++drow)
    for (int dcol = 1 - grid.cols(); dcol < grid.cols(); ++dcol)
      byOffset[static_cast<std::size_t>((drow + grid.rows() - 1) * width +
                                        dcol + grid.cols() - 1)] =
          covarianceAtOffset(config, drow, dcol);
  return CholeskyFactorization(grid.count(), [&](int a, int b) {
    const TilePos pa = grid.posOf(a);
    const TilePos pb = grid.posOf(b);
    return byOffset[static_cast<std::size_t>(
        (pa.row - pb.row + grid.rows() - 1) * width + pa.col - pb.col +
        grid.cols() - 1)];
  });
}

}  // namespace

SpatialFieldSampler::SpatialFieldSampler(const SpatialFieldConfig& config)
    : config_(config), chol_(factorCovariance(config)) {}

double SpatialFieldSampler::covariance(int a, int b) const {
  const TilePos pa = config_.grid.posOf(a);
  const TilePos pb = config_.grid.posOf(b);
  return covarianceAtOffset(config_, pa.row - pb.row, pa.col - pb.col);
}

Vector SpatialFieldSampler::sample(Rng& rng) const {
  const int n = config_.grid.count();
  Vector z = rng.gaussianVector(n);
  Vector field = chol_.applyL(z);
  for (double& x : field) x += config_.mean;
  return field;
}

}  // namespace hayat
