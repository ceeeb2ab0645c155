// Tests for the process-variation substrate: spatial field statistics,
// Eq. (1) frequency extraction, Eq. (2) leakage multipliers, and the
// chip-population generator (including the Section V 30-35% frequency
// spread calibration).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "cholesky_reference.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "variation/population.hpp"
#include "variation/spatial_field.hpp"
#include "variation/variation_map.hpp"

namespace hayat {
namespace {

SpatialFieldConfig smallFieldConfig() {
  SpatialFieldConfig fc;
  fc.grid = GridShape(8, 8);
  fc.pointSpacingX = 1.0e-3;
  fc.pointSpacingY = 1.0e-3;
  fc.mean = 1.0;
  fc.sigma = 0.1;
  fc.correlationRange = 4.0e-3;
  fc.globalFraction = 0.2;
  fc.nuggetFraction = 0.1;
  return fc;
}

// --- In-place tiled Cholesky ---------------------------------------------

/// Factors `a` both ways and requires identical bytes for L and for L z.
void expectTiledFactorIsTheReference(const Matrix& a, const std::string& what) {
  const int n = a.rows();
  const CholeskyFactorization tiled(a);
  const Matrix reference = testref::columnOrderCholesky(a);
  const Matrix lower = testref::lowerOf(tiled);
  const auto size = static_cast<std::size_t>(n);
  const std::size_t bytes = size * size * sizeof(double);
  EXPECT_EQ(std::memcmp(lower.data().data(), reference.data().data(), bytes),
            0)
      << what << ": factor";
  Rng rng(static_cast<std::uint64_t>(n) + 7);
  const Vector z = rng.gaussianVector(n);
  const Vector mine = tiled.applyL(z);
  const Vector theirs = testref::columnOrderApplyL(reference, z);
  EXPECT_EQ(std::memcmp(mine.data(), theirs.data(), size * sizeof(double)), 0)
      << what << ": applyL";
}

TEST(Cholesky, TiledFactorIsBitwiseTheColumnOrderReference) {
  // Sizes around the 8-row panel and the 2-column step: empty tile
  // sets, partial last panels, odd last columns.
  Rng rng(31);
  for (const int n : {1, 2, 7, 8, 9, 15, 17, 63, 64, 65}) {
    Matrix b(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) b(i, j) = rng.gaussian();
    Matrix a(n, n);  // B B^T + n I: symmetric positive definite
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        double acc = i == j ? n : 0.0;
        for (int k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
        a(i, j) = acc;
      }
    expectTiledFactorIsTheReference(a, "random n=" + std::to_string(n));
  }
  // The variation fields of 8x8 and 16x16 chips (256 and 1024 points).
  for (const int edge : {8, 16}) {
    PopulationConfig pc;
    pc.coreGrid = GridShape(edge, edge);
    const SpatialFieldSampler sampler(populationFieldConfig(pc));
    const int n = sampler.config().grid.count();
    Matrix a(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) a(i, j) = sampler.covariance(i, j);
    expectTiledFactorIsTheReference(a, "field " + std::to_string(edge));
  }
}

TEST(Cholesky, TiledFactorRejectsAnIndefiniteMatrix) {
  // Positive definite except in the last column, which the tiles reach
  // only after every earlier panel has been factored.
  for (const int n : {2, 9, 20}) {
    Matrix a = Matrix::identity(n);
    a(n - 1, n - 1) = -1.0;
    EXPECT_THROW(CholeskyFactorization{a}, Error) << n;
  }
  Matrix a = Matrix::identity(20);
  a(19, 3) = a(3, 19) = 2.0;  // |off-diagonal| > 1: indefinite
  EXPECT_THROW(CholeskyFactorization{a}, Error);
}

// --- Spatial field -------------------------------------------------------

TEST(SpatialField, CovarianceStructure) {
  const SpatialFieldSampler sampler(smallFieldConfig());
  // Diagonal: full variance.
  EXPECT_NEAR(sampler.covariance(0, 0), 0.01, 1e-12);
  // Adjacent points: global + spatial (no nugget), below diagonal.
  const double adjacent = sampler.covariance(0, 1);
  EXPECT_LT(adjacent, 0.01);
  EXPECT_GT(adjacent, 0.002);  // at least the global floor
  // Distant points decay towards the global floor.
  const double far = sampler.covariance(0, 63);
  EXPECT_LT(far, adjacent);
  EXPECT_GT(far, 0.0019);  // global fraction 0.2 * var 0.01
}

TEST(SpatialField, SampleMomentsMatchConfig) {
  const SpatialFieldSampler sampler(smallFieldConfig());
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int trials = 400;
  const int n = 64;
  for (int t = 0; t < trials; ++t) {
    const Vector f = sampler.sample(rng);
    for (double x : f) {
      sum += x;
      sum2 += x * x;
    }
  }
  const double m = sum / (trials * n);
  const double var = sum2 / (trials * n) - m * m;
  EXPECT_NEAR(m, 1.0, 0.01);
  EXPECT_NEAR(std::sqrt(var), 0.1, 0.01);
}

TEST(SpatialField, NeighborsCorrelateMoreThanDistantPoints) {
  const SpatialFieldSampler sampler(smallFieldConfig());
  Rng rng(23);
  std::vector<double> p0, p1, p63;
  for (int t = 0; t < 600; ++t) {
    const Vector f = sampler.sample(rng);
    p0.push_back(f[0]);
    p1.push_back(f[1]);
    p63.push_back(f[63]);
  }
  const double near = pearson(p0, p1);
  const double far = pearson(p0, p63);
  EXPECT_GT(near, far);
  EXPECT_GT(near, 0.5);
}

TEST(SpatialField, RejectsBadVarianceSplit) {
  SpatialFieldConfig fc = smallFieldConfig();
  fc.globalFraction = 0.8;
  fc.nuggetFraction = 0.5;  // sums beyond 1
  EXPECT_THROW(SpatialFieldSampler{fc}, Error);
}

// --- VariationMap --------------------------------------------------------

VariationMapConfig mapConfig() {
  VariationMapConfig mc;
  mc.coreGrid = GridShape(4, 4);
  mc.pointsPerCoreEdge = 2;
  mc.nominalFrequency = 3.0e9;
  mc.nominalVth = 0.40;
  mc.criticalPathPoints = 3;
  return mc;
}

TEST(VariationMap, UniformFieldGivesNominalFrequency) {
  const VariationMapConfig mc = mapConfig();
  Rng rng(1);
  const VariationMap vm(mc, std::vector<double>(64, 1.0), rng);
  for (int i = 0; i < vm.coreCount(); ++i)
    EXPECT_DOUBLE_EQ(vm.coreInitialFmax(i), 3.0e9);
}

TEST(VariationMap, Eq1WorstCriticalPathPointLimits) {
  const VariationMapConfig mc = mapConfig();
  Rng rng(1);
  // theta = 1.25 everywhere -> f = nominal / 1.25 regardless of CP choice.
  const VariationMap vm(mc, std::vector<double>(64, 1.25), rng);
  for (int i = 0; i < vm.coreCount(); ++i)
    EXPECT_NEAR(vm.coreInitialFmax(i), 3.0e9 / 1.25, 1e-3);
}

TEST(VariationMap, SlowPointOnlyHurtsWhenOnCriticalPath) {
  VariationMapConfig mc = mapConfig();
  mc.criticalPathPoints = 4;  // all points of a 2x2 core are on the CP
  Rng rng(2);
  std::vector<double> theta(64, 1.0);
  // Slow down one grid point of core 0 (its points are rows 0-1, cols 0-1
  // of the 8x8 point grid -> indices 0, 1, 8, 9).
  theta[0] = 1.5;
  const VariationMap vm(mc, theta, rng);
  EXPECT_NEAR(vm.coreInitialFmax(0), 3.0e9 / 1.5, 1e-3);
  for (int i = 1; i < vm.coreCount(); ++i)
    EXPECT_DOUBLE_EQ(vm.coreInitialFmax(i), 3.0e9);
}

TEST(VariationMap, CriticalPathPointsBelongToCore) {
  const VariationMapConfig mc = mapConfig();
  Rng rng(5);
  std::vector<double> theta(64, 1.0);
  const VariationMap vm(mc, theta, rng);
  for (int core = 0; core < vm.coreCount(); ++core) {
    const auto& cps = vm.criticalPathPoints(core);
    EXPECT_EQ(static_cast<int>(cps.size()), mc.criticalPathPoints);
    const auto& pts = vm.corePoints(core);
    for (int p : cps)
      EXPECT_NE(std::find(pts.begin(), pts.end(), p), pts.end());
  }
}

TEST(VariationMap, VthDeltaSignConvention) {
  const VariationMapConfig mc = mapConfig();
  Rng rng(3);
  std::vector<double> theta(64, 1.1);  // slow silicon: higher Vth
  const VariationMap vm(mc, theta, rng);
  EXPECT_NEAR(vm.coreVthDelta(0), 0.04, 1e-12);
  // Higher Vth -> lower leakage: multiplier below 1.
  EXPECT_LT(vm.coreLeakageMultiplier(0, 330.0), 1.0);
}

TEST(VariationMap, FastSiliconLeaksMore) {
  const VariationMapConfig mc = mapConfig();
  Rng rng(3);
  const VariationMap fast(mc, std::vector<double>(64, 0.9), rng);
  Rng rng2(3);
  const VariationMap slow(mc, std::vector<double>(64, 1.1), rng2);
  EXPECT_GT(fast.coreLeakageMultiplier(0, 330.0), 1.0);
  EXPECT_GT(fast.coreLeakageMultiplier(0, 330.0),
            slow.coreLeakageMultiplier(0, 330.0));
  // And the fast chip is actually faster (Eq. 1).
  EXPECT_GT(fast.coreInitialFmax(0), slow.coreInitialFmax(0));
}

TEST(VariationMap, LeakageMultiplierTemperatureSoftening) {
  // At higher T the thermal voltage grows, so the *variation-induced*
  // multiplier moves towards 1 (the T dependence itself lives in the
  // LeakageModel).
  const VariationMapConfig mc = mapConfig();
  Rng rng(4);
  const VariationMap vm(mc, std::vector<double>(64, 0.9), rng);
  EXPECT_GT(vm.coreLeakageMultiplier(0, 310.0),
            vm.coreLeakageMultiplier(0, 390.0));
}

TEST(VariationMap, RejectsMismatchedField) {
  const VariationMapConfig mc = mapConfig();
  Rng rng(1);
  EXPECT_THROW(VariationMap(mc, std::vector<double>(10, 1.0), rng), Error);
}

TEST(VariationMap, RejectsNonPositiveTheta) {
  const VariationMapConfig mc = mapConfig();
  Rng rng(1);
  std::vector<double> theta(64, 1.0);
  theta[5] = -0.2;
  EXPECT_THROW(VariationMap(mc, theta, rng), Error);
}

// --- Population ----------------------------------------------------------

TEST(Population, Reproducible) {
  const PopulationConfig pc;
  const auto a = generateChipPopulation(pc, 3, 99);
  const auto b = generateChipPopulation(pc, 3, 99);
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < a[0].coreCount(); ++i)
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(c)].coreInitialFmax(i),
                       b[static_cast<std::size_t>(c)].coreInitialFmax(i));
}

TEST(Population, DistinctChipsDiffer) {
  const PopulationConfig pc;
  const auto chips = generateChipPopulation(pc, 2, 7);
  int different = 0;
  for (int i = 0; i < chips[0].coreCount(); ++i)
    if (chips[0].coreInitialFmax(i) != chips[1].coreInitialFmax(i))
      ++different;
  EXPECT_GT(different, 32);
}

TEST(Population, FrequencySpreadMatchesSectionV) {
  // "we reach a frequency variation of about 30%-35% at 1.13V, 3-4GHz" —
  // allow a generous band around that across a 25-chip population.
  const PopulationConfig pc;
  const auto chips = generateChipPopulation(pc, 25, 2015);
  std::vector<double> spreads;
  for (const auto& chip : chips) spreads.push_back(frequencySpread(chip));
  const double avg = mean(spreads);
  EXPECT_GT(avg, 0.22);
  EXPECT_LT(avg, 0.45);
}

TEST(Population, FrequenciesInPaperBand) {
  // Initial fmax values should straddle 3-4 GHz-ish (Fig. 2o reports
  // maxima of 3.64 and means near 3.0).
  const PopulationConfig pc;
  const auto chips = generateChipPopulation(pc, 10, 11);
  for (const auto& chip : chips) {
    std::vector<double> f;
    for (int i = 0; i < chip.coreCount(); ++i)
      f.push_back(chip.coreInitialFmax(i));
    EXPECT_GT(maxOf(f) / 1e9, 2.8);
    EXPECT_LT(maxOf(f) / 1e9, 4.5);
    EXPECT_GT(minOf(f) / 1e9, 1.8);
  }
}

TEST(Population, SingleChipHelperMatchesPopulation) {
  const PopulationConfig pc;
  const VariationMap solo = generateChip(pc, 123);
  const auto chips = generateChipPopulation(pc, 1, 123);
  for (int i = 0; i < solo.coreCount(); ++i)
    EXPECT_DOUBLE_EQ(solo.coreInitialFmax(i), chips[0].coreInitialFmax(i));
}

TEST(Population, IndexedChipIsBitwiseThePopulationMember) {
  // System::create samples chip i alone; it must be the i-th chip of the
  // population drawn in full.
  const PopulationConfig pc;
  const auto chips = generateChipPopulation(pc, 8, 77);
  for (const int index : {0, 1, 5, 7}) {
    const VariationMap alone = generateChip(pc, 77, index);
    const VariationMap& member = chips[static_cast<std::size_t>(index)];
    ASSERT_EQ(alone.coreCount(), member.coreCount());
    for (int i = 0; i < alone.coreCount(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(alone.coreInitialFmax(i)),
                std::bit_cast<std::uint64_t>(member.coreInitialFmax(i)))
          << "chip " << index << ", core " << i;
      EXPECT_EQ(alone.criticalPathPoints(i), member.criticalPathPoints(i));
    }
    for (int p = 0; p < alone.pointGrid().count(); ++p)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(alone.theta(p)),
                std::bit_cast<std::uint64_t>(member.theta(p)))
          << "chip " << index << ", point " << p;
  }
  EXPECT_THROW(generateChip(pc, 77, -1), Error);
}

TEST(Population, ChipDigestIsPinned16x16) {
  // FNV-1a over the bit patterns of every theta and fmax of four 16x16
  // chips (a 1024-point field): pins the sampler's Cholesky factor and
  // applyL bytes, not just their statistics.
  PopulationConfig pc;
  pc.coreGrid = GridShape(16, 16);
  const auto chips = generateChipPopulation(pc, 4, 2015);
  std::uint64_t h = 1469598103934665603ull;
  const auto append = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const VariationMap& chip : chips) {
    for (int p = 0; p < chip.pointGrid().count(); ++p) append(chip.theta(p));
    for (int i = 0; i < chip.coreCount(); ++i) append(chip.coreInitialFmax(i));
  }
  EXPECT_EQ(h, 0x48177bdec1bff8edull);
}

TEST(Population, ChipToChipMeanVariation) {
  // The global (die-to-die) variance component must shift whole chips:
  // chip-mean fmax should vary across the population.
  const PopulationConfig pc;
  const auto chips = generateChipPopulation(pc, 25, 3);
  std::vector<double> chipMeans;
  for (const auto& chip : chips) {
    double acc = 0.0;
    for (int i = 0; i < chip.coreCount(); ++i) acc += chip.coreInitialFmax(i);
    chipMeans.push_back(acc / chip.coreCount() / 1e9);
  }
  EXPECT_GT(stddev(chipMeans), 0.02);  // at least ~20 MHz of D2D spread
}

}  // namespace
}  // namespace hayat
