// Tracked perf harness for the sparse thermal kernels (DESIGN.md §3.8).
//
// For each configuration it times the banded RCM solver against the
// dense reference LU of the *same* permuted system (the two backends of
// common/sparse.hpp's RcSolver, selected per model with
// ThermalConfig::solver) across four levels:
//
//   factorize   banded-RCM RcSolver construction vs the pre-sparse
//               reference — a dense LuFactorization of the
//               natural-ordered conductance matrix, exactly what the
//               models built before the sparse migration (block models
//               4x4/8x8/16x16 and grid-mode refinements of the 8x8 die)
//   step        one implicit-Euler transient step (the epoch hot loop's
//               inner kernel, TransientSolver::stepInPlace)
//   epoch       one full EpochSimulator window (power, leakage, DTM,
//               accounting — everything around the solve)
//   lifetime    one sweep task (System construction + a short
//               LifetimeSimulator run) under the Hayat policy, exactly
//               the unit ExperimentEngine::runTask repeats.  The
//               reference lane stacks both seed-era paths — the dense
//               LU *and* AgingTableConfig::scalarReference — which
//               also regenerates the 3D aging table per task (the
//               scalar twin bypasses the shared aging-table cache), so
//               the speedup column measures the full batched
//               aging/policy fast path plus cross-task start-up
//               amortization (DESIGN.md §3.10) against the
//               pre-migration baseline, not just the solver swap.
//
// A final lifetime-breakdown section (JSON key "lifetime_breakdown")
// splits the batched-default lifetime run into aging / policy / thermal
// / other wall-clock fractions via lifetimePhaseNanos(); CI's perf-smoke
// gate budgets the aging+policy share so the Amdahl gap the sparse
// kernels exposed cannot silently reopen.  Since v3 each breakdown row
// also reports the baseline-maintenance share (predictorBaselineNanos:
// makeBaseline / refreshBaseline / commitPlacement inside the policy
// bucket), making the cost the incremental-commit scheme of DESIGN.md
// §3.11 amortizes explicit rather than folded invisibly into "policy".
//
// A "thermal_breakdown" section (v4) splits the banded transient solve
// of DESIGN.md §3.13: banded-RCM factor time, the standalone
// gather/scatter permute cost that the fused sweep absorbs, and one
// fused permute+forward+backward solve.  Since v7 each row also times
// one implicit-Euler step per lane when 1, 2 or 4 lanes step together
// (TransientSolver::stepLanes, the lockstep windows of §3.13); CI's
// perf-smoke gate requires the 2-lane step at 8x8 to beat the 1-lane
// one.
//
// A "predictor_sweep" section (v8) times one fixed-point sweep of the
// placement predictor (ThermalPredictor::predictInto with no extra
// leakage iterations: one leakage pass plus one superposition product)
// against a bench-local row-order twin that sums the same products in
// the same order over the row-major influence matrix.  The library's
// sweep runs column by column in register tiles of eight rows
// (DESIGN.md §3.11); each row reports both times and whether the two
// outputs are bitwise equal.  CI's perf-smoke gate requires the tiled
// sweep to beat the row-order one at 16x16.
//
// A "startup" section (v9) times the two per-chip start-up kernels of
// DESIGN.md §3.10 against bench-local reference twins: the variation
// sampler's Cholesky factor of a chip's field covariance (the in-place
// tiled CholeskyFactorization vs the plain column-order loops) at 8x8
// and 16x16 chips — full mode adds 32x32 — and one aging-table fill
// (the hoisted CorePathSet::delayFactorGrid behind AgingTable vs a
// per-cell CorePathSet::delayFactor fill).  Each row reports both times
// and whether the two results are bitwise equal (the factor's entries
// plus L z for one random z; every table cell).  CI's perf-smoke gate
// requires both kernels to beat their twins at 16x16, bitwise.
//
// A "failure_breakdown" section (v5) times the Monte Carlo lifetime
// distribution of DESIGN.md §3.14 against its point-MTTF twin: the same
// 4x4 lifetime task once with failure.samples = 0 and once with 256
// samples, reporting the sampling overhead ratio and the mechanism kill
// split.  The counter-based sampler rides on trajectories the simulator
// records anyway, so the distribution must stay a small constant factor
// over the point run — CI's perf-smoke gate budgets the ratio.
//
// Results go to stdout as a table and to a machine-readable JSON file
// (default BENCH_kernels.json, committed at the repo root so speedups
// are tracked in version control; see EXPERIMENTS.md).
//
// Usage: bench_kernels [--small] [--out <path>]
//   --small    CI mode: smallest configs only, short repetitions
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "aging/aging_table.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/sparse.hpp"
#include "core/hayat_policy.hpp"
#include "core/lifetime.hpp"
#include "core/system.hpp"
#include "power/leakage.hpp"
#include "runtime/epoch.hpp"
#include "runtime/mapping.hpp"
#include "runtime/thermal_predictor.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/transient.hpp"
#include "variation/population.hpp"
#include "variation/spatial_field.hpp"
#include "workload/generator.hpp"

namespace {

using namespace hayat;
using Clock = std::chrono::steady_clock;

double elapsedNs(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Best-of-`reps` mean ns/iteration, with the iteration count calibrated
/// so one repetition runs for at least `minRepNs`.
double timeNs(const std::function<void()>& fn, double minRepNs,
              int reps = 3) {
  fn();  // warm-up (first-touch, lazy caches)
  const Clock::time_point c0 = Clock::now();
  fn();
  const double single = elapsedNs(c0);
  long iters = 1;
  if (single > 0.0 && single < minRepNs)
    iters = static_cast<long>(minRepNs / single) + 1;
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (long i = 0; i < iters; ++i) fn();
    const double perIter = elapsedNs(t0) / static_cast<double>(iters);
    if (best < 0.0 || perIter < best) best = perIter;
  }
  return best;
}

struct Entry {
  std::string section;  ///< factorize | step | epoch | lifetime
  std::string model;    ///< block | grid
  std::string config;   ///< e.g. "8x8" or "8x8/sub4"
  int nodes = 0;
  double bandedNs = 0.0;
  double denseNs = 0.0;

  double speedup() const { return bandedNs > 0.0 ? denseNs / bandedNs : 0.0; }
};

ThermalConfig blockConfig(int rows, int cols,
                          RcSolver::Mode solver = RcSolver::Mode::Banded) {
  ThermalConfig tc;
  // The paper's tile: 1.70 x 1.75 mm^2 Alpha-like cores (Fig. 2).
  tc.floorplan = FloorPlan(GridShape(rows, cols), 1.70e-3, 1.75e-3);
  tc.solver = solver;
  return tc;
}

std::string gridLabel(int rows, int cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

/// Alternate-core ~3 W load (half the cores powered, the dark-silicon
/// operating point the policies run at).
Vector alternatePower(int cores) {
  Vector p(static_cast<std::size_t>(cores), 0.0);
  for (int i = 0; i < cores; i += 2) p[static_cast<std::size_t>(i)] = 3.0;
  return p;
}

/// Banded-RCM construction vs the seed-era reference: LuFactorization of
/// the natural-ordered dense conductance matrix (what ThermalModel and
/// GridThermalModel factored before the sparse migration).
Entry benchFactorization(const std::string& model, const std::string& config,
                         const SparseMatrix& a, const std::vector<int>& perm,
                         double minRepNs) {
  Entry e{"factorize", model, config, a.rows(), 0.0, 0.0};
  e.bandedNs = timeNs(
      [&] { const RcSolver s(a, perm, RcSolver::Mode::Banded); }, minRepNs);
  const Matrix dense = a.toDense();
  e.denseNs = timeNs([&] { const LuFactorization lu(dense); }, minRepNs);
  return e;
}

Entry benchBlockFactorization(int rows, int cols, double minRepNs) {
  const ThermalModel model(blockConfig(rows, cols));
  return benchFactorization("block", gridLabel(rows, cols),
                            model.conductanceSparse(), model.nodeOrdering(),
                            minRepNs);
}

Entry benchGridFactorization(int rows, int cols, int subdivision,
                             double minRepNs) {
  GridThermalConfig gc;
  gc.base = blockConfig(rows, cols);
  gc.subdivision = subdivision;
  const GridThermalModel model(gc);
  return benchFactorization(
      "grid", gridLabel(rows, cols) + "/sub" + std::to_string(subdivision),
      model.conductanceSparse(), model.nodeOrdering(), minRepNs);
}

double timeTransientStep(const ThermalModel& model, double minRepNs) {
  const TransientSolver solver(model, 6.6e-3);
  const Vector power = alternatePower(model.coreCount());
  Vector temps = solver.initialState(power);
  Vector scratch(static_cast<std::size_t>(model.nodeCount()));
  return timeNs([&] { solver.stepInPlace(temps, power, scratch); }, minRepNs,
                5);
}

Entry benchTransientStep(int rows, int cols, double minRepNs) {
  Entry e{"step", "block", gridLabel(rows, cols), 0, 0.0, 0.0};
  const ThermalModel banded(blockConfig(rows, cols));
  e.nodes = banded.nodeCount();
  e.bandedNs = timeTransientStep(banded, minRepNs);
  const ThermalModel dense(blockConfig(rows, cols, RcSolver::Mode::Dense));
  e.denseNs = timeTransientStep(dense, minRepNs);
  return e;
}

SystemConfig benchSystemConfig(int rows, int cols) {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(rows, cols);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  sc.epoch.window = 0.3;
  return sc;
}

/// `sc` on the seed-era reference paths: the dense LU and, with
/// `scalarAging`, the per-core bisection on a fresh aging table per chip.
SystemConfig referenceSystemConfig(SystemConfig sc, bool scalarAging) {
  sc.thermal.solver = RcSolver::Mode::Dense;
  sc.agingTable.scalarReference = scalarAging;
  return sc;
}

double timeEpochWindow(const SystemConfig& sc, double minRepNs) {
  System system = System::create(sc, 2015);
  Rng rng(7);
  const int budget = system.chip().coreCount() / 2;
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, budget, 3.0e9);
  const auto threads = runnableThreads(mix, chooseParallelism(mix, budget));
  Mapping mapping(system.chip().coreCount());
  int core = 0;
  for (const RunnableThread& t : threads) {
    mapping.assign(t.ref, core,
                   std::min(t.minFrequency, system.chip().currentFmax(core)),
                   t.minFrequency);
    core += 2;  // alternate cores: the dark half stays off
  }
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           sc.epoch);
  return timeNs([&] { sim.run(mapping, mix); }, minRepNs, 2);
}

Entry benchEpochWindow(int rows, int cols, double minRepNs) {
  const SystemConfig sc = benchSystemConfig(rows, cols);
  Entry e{"epoch", "block", gridLabel(rows, cols), 3 * rows * cols, 0.0, 0.0};
  e.bandedNs = timeEpochWindow(sc, minRepNs);
  // Seed lane: the dense reference LU.
  e.denseNs = timeEpochWindow(referenceSystemConfig(sc, false), minRepNs);
  return e;
}

/// §3.13 split of the banded transient solve: where one solve spends its
/// time (factor / permute / fused sweep).
struct ThermalBreakdown {
  std::string config;
  int nodes = 0;
  double factorNs = 0.0;   ///< banded-RCM RcSolver construction
  double permuteNs = 0.0;  ///< standalone gather+scatter through the RCM
                           ///< ordering — the copies the fused sweep absorbs
  double sweepNs = 0.0;    ///< one fused permute+forward+backward solve
  /// One transient step per lane with 1, 2 and 4 lanes stepped together.
  double laneStepNs[3] = {0.0, 0.0, 0.0};
};

/// Per-lane time of one TransientSolver::stepLanes call over `lanes`
/// lanes at the alternate-core load.
double timeLaneStep(const ThermalModel& model, int lanes, double minRepNs) {
  const TransientSolver solver(model, 6.6e-3);
  const Vector power = alternatePower(model.coreCount());
  std::vector<Vector> temps(static_cast<std::size_t>(lanes),
                            solver.initialState(power));
  std::vector<Vector*> tempPointers;
  std::vector<const Vector*> powerPointers;
  for (Vector& t : temps) {
    tempPointers.push_back(&t);
    powerPointers.push_back(&power);
  }
  Vector scratch;
  const auto step = [&] {
    solver.stepLanes(tempPointers, powerPointers, scratch);
  };
  return timeNs(step, minRepNs, 5) / lanes;
}

ThermalBreakdown benchThermalBreakdown(int rows, int cols, double minRepNs) {
  ThermalBreakdown b;
  b.config = gridLabel(rows, cols);
  const ThermalModel model(blockConfig(rows, cols));
  b.nodes = model.nodeCount();
  const SparseMatrix& a = model.conductanceSparse();
  const std::vector<int>& perm = model.nodeOrdering();
  b.factorNs = timeNs(
      [&] { const RcSolver s(a, perm, RcSolver::Mode::Banded); }, minRepNs);
  const RcSolver solver(a, perm, RcSolver::Mode::Banded);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const Vector rhs(n, 1.0);
  Vector x = rhs;
  Vector scratch(n);
  b.permuteNs = timeNs(
      [&] {
        for (std::size_t i = 0; i < n; ++i)
          scratch[i] = x[static_cast<std::size_t>(perm[i])];
        for (std::size_t i = 0; i < n; ++i)
          x[static_cast<std::size_t>(perm[i])] = scratch[i];
      },
      minRepNs, 5);
  // Reset the RHS each iteration (repeated A^-1 applications drift into
  // denormals); the copy is the permute-sized cost measured above.
  b.sweepNs = timeNs(
      [&] {
        x = rhs;
        solver.solveInPlace(x, scratch);
      },
      minRepNs, 5);
  const int widths[] = {1, 2, 4};
  for (int w = 0; w < 3; ++w)
    b.laneStepNs[w] = timeLaneStep(model, widths[w], minRepNs);
  return b;
}

double timeLifetimeRun(const SystemConfig& sc) {
  LifetimeConfig lc;
  lc.horizon = 0.5;
  lc.epochLength = 0.25;
  lc.workloadSeed = 77;
  const LifetimeSimulator sim(lc);
  HayatPolicy policy;
  // One sweep *task* as ExperimentEngine::runTask executes it: build the
  // System, run the lifetime.  The same statement is timed in both
  // lanes; only the reference-twin config differs.  Batched mode amortizes
  // start-up through the process-wide shared caches (aging table,
  // transient LU), scalar mode bypasses them and regenerates the 3D
  // aging table per task — the seed's per-task cost, which the paper's
  // "only a start-up time effort" observation argues should be paid
  // once per chip, not once per task.
  return timeNs(
      [&] {
        System system = System::create(sc, 2015);
        sim.run(system, policy);
      },
      0.0, 2);
}

Entry benchLifetimeRun(int rows, int cols) {
  const SystemConfig sc = benchSystemConfig(rows, cols);
  Entry e{"lifetime", "block", gridLabel(rows, cols), 3 * rows * cols, 0.0,
          0.0};
  // Fast lane: every default fast path on (banded solver, batched
  // cursor-warmed aging, snapshot-served policy loop, shared aging-table
  // + LU caches across tasks).
  Chip::clearSharedAgingTableCacheForTest();  // first build pays in full
  e.bandedNs = timeLifetimeRun(sc);
  // Reference lane ≙ the seed: dense LU, per-core bisection aging, and a
  // fresh aging table per task (the scalar twin never caches).
  e.denseNs = timeLifetimeRun(referenceSystemConfig(sc, true));
  return e;
}

/// One predictor fixed-point sweep at the alternate-core load: the
/// library's tiled column-order product against the row-order twin.
struct PredictorSweep {
  std::string config;
  int cores = 0;
  double tiledNs = 0.0;     ///< ThermalPredictor::predictInto, 1 sweep
  double rowOrderNs = 0.0;  ///< the same sweep as row dot products
  bool bitwiseEqual = false;

  double speedup() const { return tiledNs > 0.0 ? rowOrderNs / tiledNs : 0.0; }
};

PredictorSweep benchPredictorSweep(int rows, int cols, double minRepNs) {
  const System system = System::create(benchSystemConfig(rows, cols), 2015);
  const ThermalModel& thermal = system.thermal();
  const LeakageModel& leakage = system.leakage();
  const int n = thermal.coreCount();
  const auto size = static_cast<std::size_t>(n);
  const Vector power = alternatePower(n);
  std::vector<bool> on(size);
  for (std::size_t i = 0; i < size; ++i) on[i] = power[i] > 0.0;

  PredictorSweep b;
  b.config = gridLabel(rows, cols);
  b.cores = n;
  const ThermalPredictor predictor(thermal, leakage, 0);
  Vector tiled;
  Vector scratch;
  b.tiledNs = timeNs([&] { predictor.predictInto(power, on, tiled, scratch); },
                     minRepNs, 5);

  const Matrix& k = thermal.coreInfluenceMatrix();
  const Kelvin ambient = thermal.config().ambient;
  Vector rowOrder(size);
  Vector total(size);
  const auto rowOrderSweep = [&] {
    for (int i = 0; i < n; ++i) {
      const auto s = static_cast<std::size_t>(i);
      total[s] = power[s] + leakage.coreLeakage(i, ambient, on[s]);
    }
    for (int i = 0; i < n; ++i) {
      double acc = ambient;
      for (int j = 0; j < n; ++j)
        acc += k(i, j) * total[static_cast<std::size_t>(j)];
      rowOrder[static_cast<std::size_t>(i)] = acc;
    }
  };
  b.rowOrderNs = timeNs(rowOrderSweep, minRepNs, 5);
  b.bitwiseEqual =
      std::memcmp(tiled.data(), rowOrder.data(), size * sizeof(double)) == 0;
  return b;
}

/// One start-up kernel against its reference twin (§3.10 "Start-up
/// kernels").
struct StartupKernel {
  std::string kernel;  ///< sampler_factor | aging_table_fill
  std::string config;  ///< chip grid, or the table's axis sizes
  int size = 0;        ///< field points, or table cells
  double fastNs = 0.0;       ///< the library kernel
  double referenceNs = 0.0;  ///< the bench-local twin
  bool bitwiseEqual = false;

  double speedup() const { return fastNs > 0.0 ? referenceNs / fastNs : 0.0; }
};

/// One cold run — for kernels that take seconds.
double timeOnceNs(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return elapsedNs(t0);
}

/// The column-order Cholesky loops the tiled factor reproduces bitwise:
/// each entry from A(i, j) (plus the diagonal jitter), minus
/// L(i, k) L(j, k) in ascending k, times 1 / L(j, j).
Matrix columnOrderCholesky(const Matrix& a) {
  const int n = a.rows();
  Matrix l(n, n);
  double maxDiag = 0.0;
  for (int i = 0; i < n; ++i) maxDiag = std::max(maxDiag, std::fabs(a(i, i)));
  const double jitter = 1e-10 * (maxDiag > 0.0 ? maxDiag : 1.0);
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (int k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
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

/// The field covariance of a rows x cols chip, factored both ways.
StartupKernel benchSamplerFactor(int rows, int cols, double minRepNs,
                                 bool once) {
  PopulationConfig pc;
  pc.coreGrid = GridShape(rows, cols);
  const SpatialFieldSampler sampler(populationFieldConfig(pc));
  const int n = sampler.config().grid.count();
  Matrix a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) a(i, j) = sampler.covariance(i, j);

  StartupKernel b;
  b.kernel = "sampler_factor";
  b.config = gridLabel(rows, cols);
  b.size = n;
  const auto tiled = [&] { const CholeskyFactorization chol(a); };
  const auto reference = [&] { (void)columnOrderCholesky(a); };
  b.fastNs = once ? timeOnceNs(tiled) : timeNs(tiled, minRepNs);
  b.referenceNs = once ? timeOnceNs(reference) : timeNs(reference, minRepNs);

  const CholeskyFactorization chol(a);
  const Matrix l = columnOrderCholesky(a);
  bool equal = true;
  for (int i = 0; i < n && equal; ++i)
    for (int j = 0; j <= i && equal; ++j) {
      const double x = chol.entry(i, j);
      const double y = l(i, j);
      equal = std::memcmp(&x, &y, sizeof x) == 0;
    }
  Rng rng(11);
  const Vector z = rng.gaussianVector(n);
  const Vector lz = chol.applyL(z);
  for (int i = 0; i < n && equal; ++i) {
    double acc = 0.0;
    for (int j = 0; j <= i; ++j)
      acc += l(i, j) * z[static_cast<std::size_t>(j)];
    const double x = lz[static_cast<std::size_t>(i)];
    equal = std::memcmp(&acc, &x, sizeof acc) == 0;
  }
  b.bitwiseEqual = equal;
  return b;
}

/// One default-recipe chip's aging table: the hoisted fill behind
/// AgingTable against a per-cell CorePathSet::delayFactor fill.
StartupKernel benchAgingTableFill(double minRepNs) {
  const ChipConfig chip;
  Rng rng(2015);
  const CorePathSet paths =
      CorePathSet::synthesize(rng, chip.pathsPerCore, chip.elementsPerPath);
  const NbtiModel nbti(chip.nbti);
  const AgingTable table(nbti, paths, chip.agingTable);
  Table3 cells(table.raw().axis0(), table.raw().axis1(), table.raw().axis2());
  const auto perCell = [&] {
    cells.fill([&](double t, double d, double y) {
      return paths.delayFactor(nbti, t, d, y);
    });
  };

  StartupKernel b;
  b.kernel = "aging_table_fill";
  b.config = std::to_string(cells.axis0().size()) + "x" +
             std::to_string(cells.axis1().size()) + "x" +
             std::to_string(cells.axis2().size());
  b.size = cells.axis0().size() * cells.axis1().size() * cells.axis2().size();
  b.fastNs = timeNs([&] { const AgingTable t(nbti, paths, chip.agingTable); },
                    minRepNs);
  b.referenceNs = timeNs(perCell, minRepNs);
  bool equal = true;
  for (int i = 0; i < cells.axis0().size(); ++i)
    for (int j = 0; j < cells.axis1().size(); ++j)
      for (int k = 0; k < cells.axis2().size(); ++k) {
        const double x = table.raw().at(i, j, k);
        const double y = cells.at(i, j, k);
        equal = equal && std::memcmp(&x, &y, sizeof x) == 0;
      }
  b.bitwiseEqual = equal;
  return b;
}

/// Phase split of the batched-default lifetime run (lifetimePhaseNanos),
/// plus the baseline-maintenance share of the policy bucket
/// (predictorBaselineNanos: makeBaseline / refreshBaseline /
/// commitPlacement — the cost the anchored incremental-commit scheme of
/// DESIGN.md §3.11 amortizes).
struct Breakdown {
  std::string config;
  int nodes = 0;
  double agingNs = 0.0;
  double policyNs = 0.0;
  double thermalNs = 0.0;
  double baselineNs = 0.0;  ///< subset of policyNs, not a fourth bucket
  double totalNs = 0.0;

  double fraction(double ns) const { return totalNs > 0.0 ? ns / totalNs : 0.0; }
  double otherNs() const {
    return std::max(0.0, totalNs - agingNs - policyNs - thermalNs);
  }
};

Breakdown benchLifetimeBreakdown(int rows, int cols, int reps) {
  const SystemConfig sc = benchSystemConfig(rows, cols);
  System system = System::create(sc, 2015);
  LifetimeConfig lc;
  lc.horizon = 0.5;
  lc.epochLength = 0.25;
  lc.workloadSeed = 77;
  const LifetimeSimulator sim(lc);
  HayatPolicy policy;
  system.resetHealth();
  sim.run(system, policy);  // warm-up (first-touch, lazy caches)
  resetLifetimePhaseNanos();
  resetPredictorBaselineNanos();
  for (int r = 0; r < reps; ++r) {
    system.resetHealth();
    sim.run(system, policy);
  }
  const LifetimePhaseNanos ph = lifetimePhaseNanos();
  Breakdown b;
  b.config = gridLabel(rows, cols);
  b.nodes = 3 * rows * cols;
  b.agingNs = static_cast<double>(ph.aging);
  b.policyNs = static_cast<double>(ph.policy);
  b.thermalNs = static_cast<double>(ph.thermal);
  b.baselineNs = static_cast<double>(predictorBaselineNanos());
  b.totalNs = static_cast<double>(ph.total);
  return b;
}

/// §3.14 cost of lifetime distributions: one 4x4 lifetime task with and
/// without the failure Monte Carlo, on identical seeds and fast paths.
struct FailureBreakdown {
  std::string config;
  int samples = 0;
  double pointNs = 0.0;         ///< failure.samples = 0 (point MTTF)
  double distributionNs = 0.0;  ///< same task sampling the distribution
  long emKills = 0;
  long tddbKills = 0;

  double overhead() const {
    return pointNs > 0.0 ? distributionNs / pointNs : 0.0;
  }
};

FailureBreakdown benchFailureBreakdown(int rows, int cols, int samples,
                                       double minRepNs) {
  const SystemConfig sc = benchSystemConfig(rows, cols);
  FailureBreakdown b;
  b.config = gridLabel(rows, cols);
  b.samples = samples;
  LifetimeConfig lc;
  lc.horizon = 0.5;
  lc.epochLength = 0.25;
  lc.workloadSeed = 77;
  lc.failure.seed = 99;
  HayatPolicy policy;
  const auto timeWith = [&](int sampleCount) {
    lc.failure.samples = sampleCount;
    const LifetimeSimulator sim(lc);
    return timeNs(
        [&] {
          System system = System::create(sc, 2015);
          sim.run(system, policy);
        },
        minRepNs, 2);
  };
  b.pointNs = timeWith(0);
  b.distributionNs = timeWith(samples);
  // One extra un-timed run for the mechanism split.
  lc.failure.samples = samples;
  System system = System::create(sc, 2015);
  const LifetimeResult result = LifetimeSimulator(lc).run(system, policy);
  if (result.distribution.has_value()) {
    b.emKills = result.distribution->emKills;
    b.tddbKills = result.distribution->tddbKills;
  }
  return b;
}

void writeJson(const std::string& path, const std::string& mode,
               const std::vector<Entry>& entries,
               const std::vector<Breakdown>& breakdowns,
               const std::vector<ThermalBreakdown>& thermalBreakdowns,
               const std::vector<PredictorSweep>& predictorSweeps,
               const std::vector<StartupKernel>& startupKernels,
               const std::vector<FailureBreakdown>& failureBreakdowns) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"bench_kernels\",\n"
      << "  \"version\": 9,\n"
      << "  \"mode\": \"" << mode << "\",\n"
      << "  \"units\": \"nanoseconds\",\n"
      << "  \"results\": [\n";
  char buf[320];
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"section\": \"%s\", \"model\": \"%s\", "
                  "\"config\": \"%s\", \"nodes\": %d, "
                  "\"banded_ns\": %.1f, \"dense_ns\": %.1f, "
                  "\"speedup\": %.2f}%s\n",
                  e.section.c_str(), e.model.c_str(), e.config.c_str(),
                  e.nodes, e.bandedNs, e.denseNs, e.speedup(),
                  i + 1 < entries.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"lifetime_breakdown\": [\n";
  for (std::size_t i = 0; i < breakdowns.size(); ++i) {
    const Breakdown& b = breakdowns[i];
    // baseline_fraction is the share of total spent maintaining
    // prediction baselines — a subset of policy_fraction, not a fifth
    // bucket (the four *_fraction buckets still sum to ~1).
    std::snprintf(buf, sizeof(buf),
                  "    {\"config\": \"%s\", \"nodes\": %d, "
                  "\"total_ns\": %.0f, "
                  "\"aging_fraction\": %.4f, \"policy_fraction\": %.4f, "
                  "\"thermal_fraction\": %.4f, \"other_fraction\": %.4f, "
                  "\"baseline_fraction\": %.4f}%s\n",
                  b.config.c_str(), b.nodes, b.totalNs,
                  b.fraction(b.agingNs), b.fraction(b.policyNs),
                  b.fraction(b.thermalNs), b.fraction(b.otherNs()),
                  b.fraction(b.baselineNs),
                  i + 1 < breakdowns.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"thermal_breakdown\": [\n";
  for (std::size_t i = 0; i < thermalBreakdowns.size(); ++i) {
    const ThermalBreakdown& t = thermalBreakdowns[i];
    // permute_ns is what the standalone gather/scatter would cost; the
    // fused sweep (sweep_ns) already absorbs it.
    std::snprintf(buf, sizeof(buf),
                  "    {\"config\": \"%s\", \"nodes\": %d, "
                  "\"factor_ns\": %.1f, \"permute_ns\": %.1f, "
                  "\"sweep_ns\": %.1f, \"lane1_step_ns\": %.1f, "
                  "\"lane2_step_ns\": %.1f, \"lane4_step_ns\": %.1f}%s\n",
                  t.config.c_str(), t.nodes, t.factorNs, t.permuteNs,
                  t.sweepNs, t.laneStepNs[0], t.laneStepNs[1],
                  t.laneStepNs[2],
                  i + 1 < thermalBreakdowns.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"predictor_sweep\": [\n";
  for (std::size_t i = 0; i < predictorSweeps.size(); ++i) {
    const PredictorSweep& p = predictorSweeps[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"config\": \"%s\", \"cores\": %d, "
                  "\"tiled_ns\": %.1f, \"row_order_ns\": %.1f, "
                  "\"speedup\": %.2f, \"bitwise_equal\": %s}%s\n",
                  p.config.c_str(), p.cores, p.tiledNs, p.rowOrderNs,
                  p.speedup(), p.bitwiseEqual ? "true" : "false",
                  i + 1 < predictorSweeps.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"startup\": [\n";
  for (std::size_t i = 0; i < startupKernels.size(); ++i) {
    const StartupKernel& k = startupKernels[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"kernel\": \"%s\", \"config\": \"%s\", "
                  "\"size\": %d, \"fast_ns\": %.0f, "
                  "\"reference_ns\": %.0f, \"speedup\": %.2f, "
                  "\"bitwise_equal\": %s}%s\n",
                  k.kernel.c_str(), k.config.c_str(), k.size, k.fastNs,
                  k.referenceNs, k.speedup(),
                  k.bitwiseEqual ? "true" : "false",
                  i + 1 < startupKernels.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n"
      << "  \"failure_breakdown\": [\n";
  for (std::size_t i = 0; i < failureBreakdowns.size(); ++i) {
    const FailureBreakdown& f = failureBreakdowns[i];
    // overhead is distribution_ns / point_ns of the identical task; CI's
    // perf-smoke gate budgets it (the sampler must stay a small constant
    // factor over the point run it rides on).
    std::snprintf(buf, sizeof(buf),
                  "    {\"config\": \"%s\", \"samples\": %d, "
                  "\"point_ns\": %.0f, \"distribution_ns\": %.0f, "
                  "\"overhead\": %.3f, \"em_kills\": %ld, "
                  "\"tddb_kills\": %ld}%s\n",
                  f.config.c_str(), f.samples, f.pointNs, f.distributionNs,
                  f.overhead(), f.emKills, f.tddbKills,
                  i + 1 < failureBreakdowns.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::string outPath = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--small] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  const double minRepNs = small ? 2e6 : 2e7;

  std::vector<Entry> entries;
  const std::vector<std::pair<int, int>> blockGrids =
      small ? std::vector<std::pair<int, int>>{{4, 4}, {8, 8}}
            : std::vector<std::pair<int, int>>{{4, 4}, {8, 8}, {16, 16}};
  for (const auto& [rows, cols] : blockGrids)
    entries.push_back(benchBlockFactorization(rows, cols, minRepNs));
  // Grid-mode die refinements: the paper's 8x8 chip plus the 16x16
  // validation scale, where the banded profile stays narrow relative to
  // the node count and the dense reference falls behind the furthest
  // (4x4 when small).
  struct GridCase {
    int rows;
    int sub;
  };
  const std::vector<GridCase> gridCases =
      small ? std::vector<GridCase>{{4, 2}, {4, 3}}
            : std::vector<GridCase>{{8, 2}, {8, 4}, {16, 2}, {16, 4}};
  for (const GridCase& g : gridCases)
    entries.push_back(benchGridFactorization(g.rows, g.rows, g.sub, minRepNs));
  for (const auto& [rows, cols] : blockGrids)
    entries.push_back(benchTransientStep(rows, cols, minRepNs));
  for (const auto& [rows, cols] : blockGrids)
    entries.push_back(benchEpochWindow(rows, cols, small ? 0.0 : minRepNs));
  const std::vector<std::pair<int, int>> lifetimeGrids =
      small ? std::vector<std::pair<int, int>>{{4, 4}}
            : std::vector<std::pair<int, int>>{{4, 4}, {8, 8}, {16, 16}};
  for (const auto& [rows, cols] : lifetimeGrids)
    entries.push_back(benchLifetimeRun(rows, cols));
  // The breakdown list always includes 16x16: CI's perf-smoke gate pins
  // the policy-vs-thermal share at the validation scale even in --small
  // mode (the breakdown run is cheap — no dense reference lane).
  const std::vector<std::pair<int, int>> breakdownGrids =
      small ? std::vector<std::pair<int, int>>{{4, 4}, {16, 16}}
            : std::vector<std::pair<int, int>>{{4, 4}, {8, 8}, {16, 16}};
  std::vector<Breakdown> breakdowns;
  for (const auto& [rows, cols] : breakdownGrids)
    breakdowns.push_back(benchLifetimeBreakdown(rows, cols, small ? 2 : 4));
  // Thermal split, with the per-lane step rows: 4x4, 8x8 and 16x16 in
  // both modes (no dense lane — cheap; CI gates the 8x8 lane rows).
  std::vector<ThermalBreakdown> thermalBreakdowns;
  for (const auto& [rows, cols] :
       std::vector<std::pair<int, int>>{{4, 4}, {8, 8}, {16, 16}})
    thermalBreakdowns.push_back(
        benchThermalBreakdown(rows, cols, small ? 0.0 : minRepNs));
  // Predictor fixed-point sweep, tiled vs row order: 8x8 and 16x16 in
  // both modes (microseconds per sweep; CI gates the 16x16 row).
  std::vector<PredictorSweep> predictorSweeps;
  for (const auto& [rows, cols] :
       std::vector<std::pair<int, int>>{{8, 8}, {16, 16}})
    predictorSweeps.push_back(benchPredictorSweep(rows, cols, minRepNs));
  // Start-up kernels: the sampler factor at 8x8 and 16x16 chips (CI
  // gates the 16x16 row), plus 32x32 — seconds per factor, one run
  // each — in full mode; and one aging-table fill.
  std::vector<StartupKernel> startupKernels;
  for (const int edge : {8, 16})
    startupKernels.push_back(benchSamplerFactor(edge, edge, minRepNs, false));
  if (!small)
    startupKernels.push_back(benchSamplerFactor(32, 32, minRepNs, true));
  startupKernels.push_back(benchAgingTableFill(minRepNs));
  // Failure Monte Carlo cost: always the 4x4 task at 256 samples (what
  // the CI perf-smoke gate budgets); full mode adds the 8x8 point.
  // minRepNs applies even in small mode: the CI gate budgets the
  // distribution/point *ratio*, so both lanes need calibrated loops.
  std::vector<FailureBreakdown> failureBreakdowns;
  failureBreakdowns.push_back(benchFailureBreakdown(4, 4, 256, minRepNs));
  if (!small)
    failureBreakdowns.push_back(benchFailureBreakdown(8, 8, 256, minRepNs));
  std::printf("%-10s %-6s %-10s %6s %14s %14s %9s\n", "section", "model",
              "config", "nodes", "banded [ns]", "dense [ns]", "speedup");
  for (const Entry& e : entries)
    std::printf("%-10s %-6s %-10s %6d %14.0f %14.0f %8.2fx\n",
                e.section.c_str(), e.model.c_str(), e.config.c_str(), e.nodes,
                e.bandedNs, e.denseNs, e.speedup());
  std::printf("\n%-20s %-10s %8s %8s %8s %8s %10s\n", "lifetime-breakdown",
              "config", "aging", "policy", "thermal", "other", "baseline");
  for (const Breakdown& b : breakdowns)
    std::printf("%-20s %-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %9.1f%%\n", "",
                b.config.c_str(), 100.0 * b.fraction(b.agingNs),
                100.0 * b.fraction(b.policyNs),
                100.0 * b.fraction(b.thermalNs),
                100.0 * b.fraction(b.otherNs()),
                100.0 * b.fraction(b.baselineNs));
  std::printf("\n%-20s %-10s %12s %12s %12s %12s %12s %12s\n",
              "thermal-breakdown", "config", "factor [ns]", "perm [ns]",
              "sweep [ns]", "1-lane [ns]", "2-lane [ns]", "4-lane [ns]");
  for (const ThermalBreakdown& t : thermalBreakdowns)
    std::printf("%-20s %-10s %12.0f %12.1f %12.1f %12.1f %12.1f %12.1f\n", "",
                t.config.c_str(), t.factorNs, t.permuteNs, t.sweepNs,
                t.laneStepNs[0], t.laneStepNs[1], t.laneStepNs[2]);
  std::printf("\n%-20s %-10s %8s %12s %14s %9s %8s\n", "predictor-sweep",
              "config", "cores", "tiled [ns]", "row-order [ns]", "speedup",
              "bitwise");
  for (const PredictorSweep& p : predictorSweeps)
    std::printf("%-20s %-10s %8d %12.0f %14.0f %8.2fx %8s\n", "",
                p.config.c_str(), p.cores, p.tiledNs, p.rowOrderNs,
                p.speedup(), p.bitwiseEqual ? "yes" : "NO");
  std::printf("\n%-20s %-18s %-10s %8s %14s %14s %9s %8s\n", "startup",
              "kernel", "config", "size", "fast [ns]", "reference [ns]",
              "speedup", "bitwise");
  for (const StartupKernel& k : startupKernels)
    std::printf("%-20s %-18s %-10s %8d %14.0f %14.0f %8.2fx %8s\n", "",
                k.kernel.c_str(), k.config.c_str(), k.size, k.fastNs,
                k.referenceNs, k.speedup(), k.bitwiseEqual ? "yes" : "NO");
  std::printf("\n%-20s %-10s %8s %12s %14s %9s %8s %8s\n",
              "failure-breakdown", "config", "samples", "point [ns]",
              "dist [ns]", "overhead", "em", "tddb");
  for (const FailureBreakdown& f : failureBreakdowns)
    std::printf("%-20s %-10s %8d %12.0f %14.0f %8.2fx %8ld %8ld\n", "",
                f.config.c_str(), f.samples, f.pointNs, f.distributionNs,
                f.overhead(), f.emKills, f.tddbKills);
  writeJson(outPath, small ? "small" : "full", entries, breakdowns,
            thermalBreakdowns, predictorSweeps, startupKernels,
            failureBreakdowns);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
