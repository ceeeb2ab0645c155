// Unit and property tests for the common substrate: RNG, linear algebra,
// interpolation tables, geometry, statistics, and table rendering.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cholesky_reference.hpp"
#include "common/alloc_counter.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/interp.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/shared_memo.hpp"
#include "common/sparse.hpp"
#include "common/statistics.hpp"
#include "common/text_table.hpp"
#include "common/units.hpp"
#include "telemetry/metrics.hpp"

namespace hayat {
namespace {

// --- Units ---------------------------------------------------------------

TEST(Units, CelsiusKelvinRoundTrip) {
  EXPECT_DOUBLE_EQ(celsiusToKelvin(95.0), 368.15);
  EXPECT_DOUBLE_EQ(kelvinToCelsius(celsiusToKelvin(45.0)), 45.0);
}

TEST(Units, YearConversionRoundTrip) {
  EXPECT_NEAR(secondsToYears(yearsToSeconds(3.5)), 3.5, 1e-12);
  EXPECT_GT(kSecondsPerYear, 365.0 * 24 * 3600);
}

TEST(Units, FrequencyHelpers) {
  EXPECT_DOUBLE_EQ(gigahertz(3.0), 3.0e9);
  EXPECT_DOUBLE_EQ(toGigahertz(gigahertz(2.5)), 2.5);
}

// --- Error handling ------------------------------------------------------

TEST(Error, RequireThrowsWithContext) {
  try {
    HAYAT_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(HAYAT_REQUIRE(true, "never"));
}

// --- RNG -----------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.nextU64() == b.nextU64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[static_cast<std::size_t>(rng.uniformInt(10))];
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 each
}

TEST(Rng, GaussianMoments) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
  Rng rng(42);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.split();
  // The child stream must not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.nextU64() == child.nextU64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, RejectsInvalidArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.uniformInt(0), Error);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), Error);
}

// --- Matrix / LU / Cholesky ---------------------------------------------

TEST(Matrix, IdentitySolve) {
  const Matrix eye = Matrix::identity(5);
  const LuFactorization lu(eye);
  const Vector b = {1, 2, 3, 4, 5};
  EXPECT_LT(maxAbsDiff(lu.solve(b), b), 1e-14);
}

TEST(Matrix, MultiplyMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const Vector y = a.multiply({1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, AddAndScale) {
  Matrix a = Matrix::identity(3);
  const Matrix b = a.add(a.scaled(2.0));
  EXPECT_DOUBLE_EQ(b(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(b(0, 1), 0.0);
}

TEST(Matrix, TransposedSwapsIndices) {
  Matrix a(2, 3);
  a(0, 2) = 7.0;
  EXPECT_DOUBLE_EQ(a.transposed()(2, 0), 7.0);
  EXPECT_EQ(a.transposed().rows(), 3);
}

TEST(Lu, SolvesRandomSystems) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + rng.uniformInt(30);
    Matrix a(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) a(i, j) = rng.gaussian();
    // Diagonal dominance guarantees non-singularity.
    for (int i = 0; i < n; ++i) a(i, i) += n;
    Vector x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.gaussian();
    const Vector b = a.multiply(x);
    const LuFactorization lu(a);
    EXPECT_LT(maxAbsDiff(lu.solve(b), x), 1e-9);
  }
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal — only a pivoting LU survives this.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const LuFactorization lu(a);
  const Vector x = lu.solve({3.0, 4.0});
  EXPECT_DOUBLE_EQ(x[0], 4.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(Lu, ThrowsOnSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(Lu, ThrowsOnNonSquare) {
  EXPECT_THROW(LuFactorization{Matrix(2, 3)}, Error);
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(13);
  const int n = 12;
  // A = B B^T + n I is symmetric positive definite.
  Matrix b(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) b(i, j) = rng.gaussian();
  Matrix a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = i == j ? n : 0.0;
      for (int k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
      a(i, j) = acc;
    }
  const CholeskyFactorization chol(a);
  const Matrix l = testref::lowerOf(chol);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) acc += l(i, k) * l(j, k);
      EXPECT_NEAR(acc, a(i, j), 1e-8);
    }
}

TEST(Cholesky, SolveMatchesLu) {
  Matrix a(3, 3);
  a(0, 0) = 4; a(0, 1) = 1; a(0, 2) = 0;
  a(1, 0) = 1; a(1, 1) = 5; a(1, 2) = 2;
  a(2, 0) = 0; a(2, 1) = 2; a(2, 2) = 6;
  const CholeskyFactorization chol(a);
  const LuFactorization lu(a);
  const Vector b = {1, 2, 3};
  EXPECT_LT(maxAbsDiff(testref::choleskySolve(testref::lowerOf(chol), b),
                       lu.solve(b)),
            1e-10);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  Matrix a = Matrix::identity(2);
  a(1, 1) = -1.0;
  EXPECT_THROW(CholeskyFactorization{a}, Error);
}

TEST(Cholesky, ApplyLHasRequestedCovariance) {
  // Sampling x = L z must reproduce Var(x_i) = A(i, i).
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 0.8;
  a(1, 0) = 0.8; a(1, 1) = 1.0;
  const CholeskyFactorization chol(a);
  Rng rng(5);
  const int n = 100000;
  double v0 = 0.0, v1 = 0.0, cov = 0.0;
  for (int i = 0; i < n; ++i) {
    const Vector x = chol.applyL(rng.gaussianVector(2));
    v0 += x[0] * x[0];
    v1 += x[1] * x[1];
    cov += x[0] * x[1];
  }
  EXPECT_NEAR(v0 / n, 2.0, 0.05);
  EXPECT_NEAR(v1 / n, 1.0, 0.03);
  EXPECT_NEAR(cov / n, 0.8, 0.03);
}

// --- Interpolation -------------------------------------------------------

TEST(Axis, LocateInterior) {
  const Axis axis = Axis::linspace(0.0, 10.0, 11);
  const auto b = axis.locate(3.5);
  EXPECT_EQ(b.index, 3);
  EXPECT_NEAR(b.frac, 0.5, 1e-12);
}

TEST(Axis, LocateClampsOutside) {
  const Axis axis = Axis::linspace(0.0, 10.0, 11);
  EXPECT_EQ(axis.locate(-5.0).index, 0);
  EXPECT_DOUBLE_EQ(axis.locate(-5.0).frac, 0.0);
  EXPECT_EQ(axis.locate(25.0).index, 9);
  EXPECT_DOUBLE_EQ(axis.locate(25.0).frac, 1.0);
}

TEST(Axis, RejectsNonMonotone) {
  EXPECT_THROW(Axis({1.0, 1.0, 2.0}), Error);
  EXPECT_THROW(Axis({2.0, 1.0}), Error);
  EXPECT_THROW(Axis({1.0}), Error);
}

TEST(Table1, LinearFunctionExact) {
  const Axis axis = Axis::linspace(0.0, 4.0, 5);
  Table1 t(axis, {1.0, 3.0, 5.0, 7.0, 9.0});  // f(x) = 2x + 1
  EXPECT_NEAR(t.interpolate(1.7), 4.4, 1e-12);
  EXPECT_NEAR(t.interpolate(-1.0), 1.0, 1e-12);  // clamps
}

TEST(Table3, TrilinearReproducesLinearFunction) {
  // Trilinear interpolation is exact for multilinear functions.
  Table3 t(Axis::linspace(0, 1, 3), Axis::linspace(0, 2, 4),
           Axis::linspace(-1, 1, 5));
  auto f = [](double x, double y, double z) {
    return 2.0 + 3.0 * x - 1.5 * y + 0.5 * z + 0.25 * x * y * z;
  };
  t.fill(f);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    const double y = rng.uniform(0.0, 2.0);
    const double z = rng.uniform(-1.0, 1.0);
    EXPECT_NEAR(t.interpolate(x, y, z), f(x, y, z), 1e-10);
  }
}

TEST(Table3, ExactAtGridPoints) {
  Table3 t(Axis::linspace(0, 1, 4), Axis::linspace(0, 1, 4),
           Axis::linspace(0, 1, 4));
  t.fill([](double x, double y, double z) { return x * x + y * y + z * z; });
  const auto& a0 = t.axis0();
  for (int i = 0; i < a0.size(); ++i) {
    const double v = a0[i];
    EXPECT_NEAR(t.interpolate(v, v, v), 3.0 * v * v, 1e-12);
  }
}

TEST(Table3, ClampsBeyondBounds) {
  Table3 t(Axis::linspace(0, 1, 2), Axis::linspace(0, 1, 2),
           Axis::linspace(0, 1, 2));
  t.fill([](double x, double, double) { return x; });
  EXPECT_DOUBLE_EQ(t.interpolate(9.0, 0.5, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(t.interpolate(-9.0, 0.5, 0.5), 0.0);
}

TEST(Axis, HintedLocateMatchesPlainLocate) {
  // The cursor fast path must pick the same bracket and fraction as the
  // binary search for every hint — valid, stale, out-of-range or cold.
  const Axis axis({0.0, 0.5, 1.5, 1.75, 4.0, 9.0});
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const double x = rng.uniform(-1.0, 10.0);
    const int hint = rng.uniformInt(axis.size() + 2) - 2;  // in [-2, size)
    const auto plain = axis.locate(x);
    const auto hinted = axis.locate(x, hint);
    EXPECT_EQ(plain.index, hinted.index) << "x=" << x << " hint=" << hint;
    EXPECT_EQ(plain.frac, hinted.frac) << "x=" << x << " hint=" << hint;
  }
  // Grid points exactly on cell boundaries, hinted with each neighbour.
  for (int i = 0; i < axis.size(); ++i)
    for (int hint = -1; hint < axis.size(); ++hint) {
      const auto plain = axis.locate(axis[i]);
      const auto hinted = axis.locate(axis[i], hint);
      EXPECT_EQ(plain.index, hinted.index);
      EXPECT_EQ(plain.frac, hinted.frac);
    }
}

TEST(TrilinearGrid, InterpolateManyIsBitwiseEqualToScalarLoop) {
  // The batched-lookup contract: cursors change how cells are found,
  // never the arithmetic, so results are bitwise equal to
  // Table3::interpolate — including clamped and cell-edge coordinates,
  // and regardless of how stale the cursor is.
  Table3 t(Axis({300.0, 320.0, 350.0, 400.0}), Axis::linspace(0.0, 1.0, 5),
           Axis({0.0, 0.25, 1.0, 3.0, 7.0, 10.0}));
  t.fill([](double x, double y, double z) {
    return 1.0 + 1e-3 * x + 0.2 * y * y + 0.03 * z + 1e-4 * x * y * z;
  });
  const TrilinearGrid grid(t);

  constexpr int kN = 64;
  std::vector<double> x0(kN), x1(kN), x2(kN), batched(kN);
  std::vector<TrilinearGrid::Cursor> cursors(kN);
  Rng rng(23);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kN; ++i) {
      // Mix random coordinates (some outside the grid — the clamp path)
      // with exact grid points (cell edges).
      if (i % 4 == 0) {
        x0[static_cast<std::size_t>(i)] = t.axis0()[rng.uniformInt(4)];
        x1[static_cast<std::size_t>(i)] = t.axis1()[rng.uniformInt(5)];
        x2[static_cast<std::size_t>(i)] = t.axis2()[rng.uniformInt(6)];
      } else {
        x0[static_cast<std::size_t>(i)] = rng.uniform(290.0, 410.0);
        x1[static_cast<std::size_t>(i)] = rng.uniform(-0.1, 1.1);
        x2[static_cast<std::size_t>(i)] = rng.uniform(-0.5, 11.0);
      }
    }
    // Cursors stay warm from the previous (different) round on purpose.
    grid.interpolateMany(x0.data(), x1.data(), x2.data(), kN, batched.data(),
                         cursors.data());
    for (int i = 0; i < kN; ++i) {
      const auto s = static_cast<std::size_t>(i);
      EXPECT_EQ(batched[s], t.interpolate(x0[s], x1[s], x2[s]))
          << "round " << round << " element " << i;
    }
    // Null cursors must give the same bits too.
    std::vector<double> cold(kN);
    grid.interpolateMany(x0.data(), x1.data(), x2.data(), kN, cold.data(),
                         nullptr);
    EXPECT_EQ(cold, batched);
  }
}

// --- Geometry ------------------------------------------------------------

TEST(GridShape, IndexRoundTrip) {
  const GridShape g(3, 5);
  for (int i = 0; i < g.count(); ++i) EXPECT_EQ(g.indexOf(g.posOf(i)), i);
}

TEST(GridShape, NeighborCounts) {
  const GridShape g(3, 3);
  EXPECT_EQ(g.neighbors4(g.indexOf({1, 1})).size(), 4u);  // center
  EXPECT_EQ(g.neighbors4(g.indexOf({0, 0})).size(), 2u);  // corner
  EXPECT_EQ(g.neighbors4(g.indexOf({0, 1})).size(), 3u);  // edge
}

TEST(GridShape, ManhattanAndEuclid) {
  const GridShape g(4, 4);
  const int a = g.indexOf({0, 0});
  const int b = g.indexOf({3, 3});
  EXPECT_EQ(g.manhattan(a, b), 6);
  EXPECT_NEAR(g.euclid(a, b), std::sqrt(18.0), 1e-12);
}

TEST(GridShape, RejectsInvalid) {
  EXPECT_THROW(GridShape(0, 3), Error);
  const GridShape g(2, 2);
  EXPECT_THROW(g.posOf(4), Error);
  EXPECT_THROW(g.indexOf({2, 0}), Error);
}

TEST(FloorPlan, GeometryMatchesPaperSetup) {
  // 8x8 cores of 1.70 x 1.75 mm^2 (Fig. 2 caption).
  const FloorPlan fp(GridShape(8, 8), 1.70e-3, 1.75e-3);
  EXPECT_EQ(fp.coreCount(), 64);
  EXPECT_NEAR(fp.chipWidth(), 13.6e-3, 1e-12);
  EXPECT_NEAR(fp.chipHeight(), 14.0e-3, 1e-12);
  EXPECT_NEAR(fp.tileArea(), 2.975e-6, 1e-12);
}

TEST(FloorPlan, TileCenters) {
  const FloorPlan fp(GridShape(2, 2), 2e-3, 4e-3);
  const auto c = fp.tileCenter(3);  // row 1, col 1
  EXPECT_NEAR(c.x, 3e-3, 1e-12);
  EXPECT_NEAR(c.y, 6e-3, 1e-12);
  EXPECT_NEAR(fp.centerDistance(0, 3), std::sqrt(4e-6 + 16e-6), 1e-12);
}

// --- Statistics ----------------------------------------------------------

TEST(Statistics, MeanStd) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Statistics, MinMaxMedian) {
  const std::vector<double> v = {3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(minOf(v), 1.0);
  EXPECT_DOUBLE_EQ(maxOf(v), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Statistics, PercentileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 10.0);
}

TEST(Statistics, PearsonPerfectCorrelation) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 4, 6, 8};
  const std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Statistics, SummaryBundle) {
  const Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Statistics, EmptyInputsThrow) {
  EXPECT_THROW(mean({}), Error);
  EXPECT_THROW(minOf({}), Error);
  EXPECT_THROW(stddev({1.0}), Error);
  EXPECT_THROW(percentile({}, 50.0), Error);
}

// --- Text rendering ------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"beta-very-long", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("beta-very-long"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), Error);
}

TEST(TextTable, NumericRowFormatting) {
  TextTable t({"label", "x", "y"});
  t.addRow("row", {1.23456, 2.0}, 2);
  EXPECT_NE(t.render().find("1.23"), std::string::npos);
}

TEST(Render, HeatmapShape) {
  const GridShape g(2, 3);
  const std::string out = renderHeatmap(g, {1, 2, 3, 4, 5, 6}, 0);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Render, BoolMap) {
  const GridShape g(2, 2);
  const std::string out = renderBoolMap(g, {true, false, false, true});
  EXPECT_NE(out.find("# ."), std::string::npos);
  EXPECT_NE(out.find(". #"), std::string::npos);
}

// --- FlagParser ------------------------------------------------------------

TEST(FlagParser, ParsesKeyValueForms) {
  FlagParser p("prog", "test");
  p.addFlag("alpha", "a flag", "1");
  p.addFlag("beta", "b flag", "x");
  const char* argv[] = {"prog", "--alpha", "42", "--beta=hello"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.getInt("alpha"), 42);
  EXPECT_EQ(p.getString("beta"), "hello");
  EXPECT_TRUE(p.provided("alpha"));
}

TEST(FlagParser, DefaultsApplyWhenAbsent) {
  FlagParser p("prog", "test");
  p.addFlag("gamma", "g flag", "2.5");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_DOUBLE_EQ(p.getDouble("gamma"), 2.5);
  EXPECT_FALSE(p.provided("gamma"));
}

TEST(FlagParser, BooleanFlagWithoutValue) {
  FlagParser p("prog", "test");
  p.addFlag("verbose", "v flag", "false");
  p.addFlag("other", "o flag", "1");
  const char* argv[] = {"prog", "--verbose", "--other", "3"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_TRUE(p.getBool("verbose"));
  EXPECT_EQ(p.getInt("other"), 3);
}

TEST(FlagParser, PositionalArguments) {
  FlagParser p("prog", "test");
  p.addFlag("x", "x flag", "0");
  const char* argv[] = {"prog", "subcmd", "--x", "1", "extra"};
  ASSERT_TRUE(p.parse(5, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "subcmd");
  EXPECT_EQ(p.positional()[1], "extra");
}

TEST(FlagParser, UnknownFlagThrows) {
  FlagParser p("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(p.parse(3, argv), Error);
}

TEST(FlagParser, TypeErrorsThrow) {
  FlagParser p("prog", "test");
  p.addFlag("n", "number", "0");
  const char* argv[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW(p.getInt("n"), Error);
  EXPECT_THROW(p.getDouble("n"), Error);
  EXPECT_THROW(p.getBool("n"), Error);
  EXPECT_THROW(p.getUint64("n"), Error);
}

TEST(FlagParser, Uint64TakesOnlyWholeNumbers) {
  FlagParser p("prog", "test");
  p.addFlag("bytes", "byte count", "0");
  const auto parsed = [&](const char* value) {
    const char* argv[] = {"prog", "--bytes", value};
    EXPECT_TRUE(p.parse(3, argv));
    return p.getUint64("bytes");
  };
  EXPECT_EQ(parsed("0"), 0u);
  EXPECT_EQ(parsed("10737418240"), 10737418240u);
  EXPECT_EQ(parsed("18446744073709551615"), 18446744073709551615u);
  // A unit suffix must not silently shrink "10G" to 10 bytes.
  for (const char* bad : {"10G", "10 ", "1.5", "-1", "+1", " 1", "", "0x10",
                          "18446744073709551616"})
    EXPECT_THROW(parsed(bad), Error) << "'" << bad << "'";
}

TEST(FlagParser, HelpShortCircuits) {
  FlagParser p("prog", "test");
  p.addFlag("x", "x flag", "0");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_NE(p.helpText().find("--x"), std::string::npos);
}

TEST(FlagParser, RejectsBadDeclarations) {
  FlagParser p("prog", "test");
  p.addFlag("dup", "first", "");
  EXPECT_THROW(p.addFlag("dup", "second", ""), Error);
  EXPECT_THROW(p.addFlag("--dashed", "bad", ""), Error);
  EXPECT_THROW(p.getString("undeclared"), Error);
}

// --- Sparse kernels ------------------------------------------------------

// Random RC-style network on an r x c grid: positive conductances on the
// 4-neighbour edges plus a positive ground conductance per node.  The
// result is symmetric and strictly diagonally dominant (so SPD), the
// same structure class as the thermal models.
SparseMatrix randomRcMatrix(int rows, int cols, Rng& rng) {
  const GridShape grid(rows, cols);
  const int n = grid.count();
  SparseMatrixBuilder builder(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j : grid.neighbors4(i)) {
      if (j <= i) continue;
      const double g = rng.uniform(0.1, 10.0);
      builder.add(i, i, g);
      builder.add(j, j, g);
      builder.add(i, j, -g);
      builder.add(j, i, -g);
    }
    builder.add(i, i, rng.uniform(0.05, 1.0));  // ground / ambient path
  }
  return builder.build();
}

TEST(Sparse, BuilderSumsDuplicatesAndSortsRows) {
  SparseMatrixBuilder b(3, 3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 2.0);
  b.add(0, 2, 0.5);
  b.add(2, 1, -3.0);
  const SparseMatrix m = b.build();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nonZeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(m.at(2, 1), -3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  // Columns sorted within each row.
  for (int r = 0; r < m.rows(); ++r)
    for (int k = m.rowStart()[static_cast<std::size_t>(r)] + 1;
         k < m.rowStart()[static_cast<std::size_t>(r) + 1]; ++k)
      EXPECT_LT(m.colIndex()[static_cast<std::size_t>(k - 1)],
                m.colIndex()[static_cast<std::size_t>(k)]);
}

TEST(Sparse, SpmvMatchesDense) {
  Rng rng(42);
  const SparseMatrix m = randomRcMatrix(4, 5, rng);
  const Matrix dense = m.toDense();
  Vector x(static_cast<std::size_t>(m.cols()));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const Vector sparseY = m.multiply(x);
  const Vector denseY = dense.multiply(x);
  ASSERT_EQ(sparseY.size(), denseY.size());
  for (std::size_t i = 0; i < sparseY.size(); ++i)
    EXPECT_DOUBLE_EQ(sparseY[i], denseY[i]);
}

TEST(Sparse, RcmIsAPermutationAndShrinksBandwidth) {
  Rng rng(7);
  const SparseMatrix m = randomRcMatrix(12, 12, rng);
  const std::vector<int> perm = reverseCuthillMcKee(m);
  ASSERT_EQ(static_cast<int>(perm.size()), m.rows());
  std::vector<char> seen(perm.size(), 0);
  for (int p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, m.rows());
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = 1;
  }
  // A 12x12 grid in row-major order already has bandwidth 12; RCM must
  // not do worse, and must beat a deliberately bad ordering.
  EXPECT_LE(bandwidthOf(m, perm), bandwidthOf(m, {}));
}

TEST(Sparse, BandedSolveMatchesDenseOnRandomRcSystems) {
  // Property test: randomized RC-style SPD systems, sparse vs dense
  // reference, tolerance 1e-10 (they are bitwise equal by construction,
  // but this test only relies on the numerical contract).
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    Rng rng(seed);
    const int rows = 2 + rng.uniformInt(6);
    const int cols = 2 + rng.uniformInt(6);
    const SparseMatrix m = randomRcMatrix(rows, cols, rng);
    const LuFactorization dense(m.toDense());
    const std::vector<int> perm = reverseCuthillMcKee(m);
    RcSolver banded(m, perm, RcSolver::Mode::Banded);
    EXPECT_FALSE(banded.usesDense());
    Vector b(static_cast<std::size_t>(m.rows()));
    for (double& v : b) v = rng.uniform(-5.0, 5.0);
    const Vector xBanded = banded.solve(b);
    const Vector xDense = dense.solve(b);
    double maxErr = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i)
      maxErr = std::max(maxErr, std::fabs(xBanded[i] - xDense[i]));
    EXPECT_LE(maxErr, 1e-10) << "seed " << seed;
  }
}

TEST(Sparse, BandedAndDenseBackendsAreBitwiseIdentical) {
  // The stronger contract the byte-identical sweep outputs rest on: both
  // RcSolver backends factor the same permuted matrix with the same
  // operation order, so solutions match to the last bit.
  Rng rng(99);
  const SparseMatrix m = randomRcMatrix(8, 8, rng);
  const std::vector<int> perm = reverseCuthillMcKee(m);
  const RcSolver banded(m, perm, RcSolver::Mode::Banded);
  const RcSolver dense(m, perm, RcSolver::Mode::Dense);
  EXPECT_FALSE(banded.usesDense());
  EXPECT_TRUE(dense.usesDense());
  for (int trial = 0; trial < 10; ++trial) {
    Vector b(static_cast<std::size_t>(m.rows()));
    for (double& v : b) v = rng.uniform(-20.0, 20.0);
    const Vector xBanded = banded.solve(b);
    const Vector xDense = dense.solve(b);
    for (std::size_t i = 0; i < b.size(); ++i)
      EXPECT_EQ(xBanded[i], xDense[i]) << "trial " << trial << " i " << i;
  }
}

TEST(Sparse, SolveRecoversKnownSolution) {
  Rng rng(123);
  const SparseMatrix m = randomRcMatrix(6, 7, rng);
  Vector truth(static_cast<std::size_t>(m.rows()));
  for (double& v : truth) v = rng.uniform(-3.0, 3.0);
  const Vector b = m.multiply(truth);
  const RcSolver solver(m, {}, RcSolver::Mode::Banded);
  const Vector x = solver.solve(b);
  for (std::size_t i = 0; i < truth.size(); ++i)
    EXPECT_NEAR(x[i], truth[i], 1e-9);
}

TEST(Sparse, SolveInPlaceWithWarmBuffersDoesNotAllocate) {
  Rng rng(5);
  const SparseMatrix m = randomRcMatrix(8, 8, rng);
  const RcSolver solver(m, {}, RcSolver::Mode::Banded);
  Vector x(static_cast<std::size_t>(m.rows()), 1.0);
  Vector scratch;
  solver.solveInPlace(x, scratch);  // warm the scratch buffer
  if (!allocCounterActive()) GTEST_SKIP() << "sanitizer build";
  const std::uint64_t before = heapAllocationCount();
  for (int i = 0; i < 100; ++i) solver.solveInPlace(x, scratch);
  EXPECT_EQ(heapAllocationCount() - before, 0u);
}

TEST(Sparse, BandedRejectsOutOfBandEntries) {
  SparseMatrixBuilder b(4, 4);
  for (int i = 0; i < 4; ++i) b.add(i, i, 2.0);
  b.add(0, 3, -0.5);
  b.add(3, 0, -0.5);
  const SparseMatrix m = b.build();
  EXPECT_THROW(BandedFactorization(m, 1), Error);
  EXPECT_NO_THROW(BandedFactorization(m, 3));
}

// --- SharedMemo ------------------------------------------------------------

TEST(SharedMemo, BuildsOncePerKeyCountsAndEvictsLeastRecentlyUsed) {
  // Never destroyed, like the production memos: its mutex stays
  // registered for fork().
  static SharedMemo<int>& memo = *new SharedMemo<int>(
      2, "test_shared_memo_hits_total", "test_shared_memo_misses_total",
      "test_shared_memo_build_seconds");
  memo.clear();
  const telemetry::Counter& hits =
      telemetry::Registry::global().counter("test_shared_memo_hits_total");
  const telemetry::Counter& misses =
      telemetry::Registry::global().counter("test_shared_memo_misses_total");
  const telemetry::Histogram& buildSeconds =
      telemetry::Registry::global().histogram("test_shared_memo_build_seconds",
                                              {});
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();
  const std::uint64_t builds0 = buildSeconds.count();
  int builds = 0;
  const auto obtain = [&](const std::string& key, int value) {
    return memo.obtain(key, [&] {
      ++builds;
      return std::make_shared<const int>(value);
    });
  };

  telemetry::setEnabled(true);
  const auto a = obtain("a", 1);
  const auto b = obtain("b", 2);
  EXPECT_EQ(obtain("a", -1), a);  // one build per key; "a" is now newest
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(hits.value() - hits0, 1u);
  EXPECT_EQ(misses.value() - misses0, 2u);
  // Each build's time is observed once (the constructor registered the
  // histogram, so the bounds passed above are ignored).
  EXPECT_EQ(buildSeconds.count() - builds0, 2u);
  EXPECT_GT(buildSeconds.upperBounds().size(), 0u);

  // At the cap of 2, "c" evicts the least recently used entry, "b".
  (void)obtain("c", 3);
  EXPECT_EQ(obtain("a", -1), a);
  EXPECT_EQ(builds, 3);
  const auto b2 = obtain("b", 20);
  EXPECT_EQ(builds, 4);
  EXPECT_NE(b2, b);
  EXPECT_EQ(*b2, 20);
  EXPECT_EQ(*b, 2);  // the evicted value stays valid while held
  EXPECT_EQ(hits.value() - hits0, 2u);
  EXPECT_EQ(misses.value() - misses0, 4u);

  // clear() drops every entry.
  memo.clear();
  const auto a2 = obtain("a", 5);
  EXPECT_EQ(builds, 5);
  EXPECT_EQ(*a2, 5);
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(misses.value() - misses0, 5u);

  // Counting and timing happen only while telemetry is enabled.
  telemetry::setEnabled(false);
  EXPECT_EQ(obtain("a", -1), a2);
  EXPECT_EQ(hits.value() - hits0, 2u);
  EXPECT_EQ(buildSeconds.count() - builds0, 5u);
  (void)obtain("d", 4);
  EXPECT_EQ(builds, 6);
  EXPECT_EQ(buildSeconds.count() - builds0, 5u);
  memo.clear();
}

TEST(SharedMemo, DistinctKeysBuildConcurrently) {
  // Each build waits until the other has started: with builds
  // serialized, neither could finish.
  static SharedMemo<int>& memo = *new SharedMemo<int>(
      4, "test_shared_memo_concurrent_hits_total",
      "test_shared_memo_concurrent_misses_total",
      "test_shared_memo_concurrent_build_seconds");
  std::atomic<int> started{0};
  const auto build = [&](int value) {
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    return std::make_shared<const int>(started.load() == 2 ? value : -1);
  };
  std::shared_ptr<const int> a;
  std::thread other([&] { a = memo.obtain("a", [&] { return build(1); }); });
  const auto b = memo.obtain("b", [&] { return build(2); });
  other.join();
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  memo.clear();
}

TEST(SharedMemo, ConcurrentLookupsOfOneKeyBuildOnceAndFailuresRetry) {
  static SharedMemo<int>& memo = *new SharedMemo<int>(
      4, "test_shared_memo_once_hits_total",
      "test_shared_memo_once_misses_total",
      "test_shared_memo_once_build_seconds");
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const int>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      got[t] = memo.obtain("k", [&] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_shared<const int>(7);
      });
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& v : got) EXPECT_EQ(v, got.front());

  // A failed build throws to its caller and leaves no entry behind.
  EXPECT_THROW(memo.obtain("bad", []() -> std::shared_ptr<const int> {
    throw Error("build failed");
  }),
               Error);
  EXPECT_EQ(*memo.obtain("bad", [] { return std::make_shared<const int>(3); }),
            3);
  memo.clear();
}

TEST(SharedMemo, ChildRebuildsAKeyInFlightAtFork) {
  // A thread of this process is building "k" when the test forks: the
  // child must build "k" itself instead of waiting for a build that no
  // thread of the child will finish.
  static SharedMemo<int>& memo = *new SharedMemo<int>(
      4, "test_shared_memo_fork_hits_total",
      "test_shared_memo_fork_misses_total",
      "test_shared_memo_fork_build_seconds");
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  std::thread builder([&] {
    memo.obtain("k", [&] {
      building = true;
      while (!release) std::this_thread::yield();
      return std::make_shared<const int>(1);
    });
  });
  while (!building) std::this_thread::yield();
  const pid_t child = ::fork();
  if (child == 0) {
    const auto v = memo.obtain("k", [] { return std::make_shared<const int>(2); });
    ::_exit(*v == 2 ? 0 : 1);
  }
  release = true;
  builder.join();
  ASSERT_GT(child, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(*memo.obtain("k", [] { return std::make_shared<const int>(3); }),
            1);
  memo.clear();
}

}  // namespace
}  // namespace hayat
