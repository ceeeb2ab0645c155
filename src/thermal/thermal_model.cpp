#include "thermal/thermal_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "common/shared_memo.hpp"
#include "telemetry/span.hpp"

namespace hayat {

namespace {

/// Series combination of two thermal conductances.
double seriesG(double a, double b) {
  HAYAT_DCHECK(a > 0.0 && b > 0.0);
  return a * b / (a + b);
}

std::string fmtSig(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// (geometry, dt, backend) -> factored operator, shared across models.
/// Sweeps build a fresh System (and so a fresh ThermalModel) per task,
/// all with the same package; without sharing, every task would
/// re-factor the same implicit-Euler matrix.
constexpr std::size_t kTransientMemoCap = 32;
SharedMemo<ThermalModel::TransientOperator>& transientMemo =
    *new SharedMemo<ThermalModel::TransientOperator>(
        kTransientMemoCap, "hayat_thermal_lu_shared_hits_total",
        "hayat_thermal_lu_shared_misses_total",
        "hayat_thermal_lu_build_seconds");

/// (geometry, backend) -> steady kernel, shared across models the same
/// way: one factorization and one influence kernel per package instead
/// of one per task.
constexpr std::size_t kSteadyMemoCap = 16;
SharedMemo<ThermalModel::SteadyKernel>& steadyMemo =
    *new SharedMemo<ThermalModel::SteadyKernel>(
        kSteadyMemoCap, "hayat_thermal_influence_shared_hits_total",
        "hayat_thermal_influence_shared_misses_total",
        "hayat_thermal_influence_build_seconds");

/// K(i, j) = response of die node i to a watt at core j: one steady
/// solve per core column.
Matrix influenceMatrix(const RcSolver& solver, int cores) {
  Matrix k(cores, cores);
  Vector response(static_cast<std::size_t>(solver.size()));
  Vector scratch;
  for (int j = 0; j < cores; ++j) {
    std::fill(response.begin(), response.end(), 0.0);
    response[static_cast<std::size_t>(j)] = 1.0;
    solver.solveInPlace(response, scratch);
    for (int i = 0; i < cores; ++i)
      k(i, j) = response[static_cast<std::size_t>(i)];
  }
  return k;
}

ThermalModel::InfluenceProfile influenceProfile(const Matrix& k) {
  const int cores = k.rows();
  ThermalModel::InfluenceProfile p;
  p.transposed = k.transposed();
  p.columnSums.resize(static_cast<std::size_t>(cores));
  p.columnMaxOff.resize(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    const double* col = p.transposed.data().data() +
                        static_cast<std::size_t>(c) *
                            static_cast<std::size_t>(cores);
    double sum = 0.0;
    double off = 0.0;  // conservative floor; exact for a 1-core die
    for (int i = 0; i < cores; ++i) {
      sum += col[i];
      if (i != c) off = std::max(off, col[i]);
    }
    p.columnSums[static_cast<std::size_t>(c)] = sum;
    p.columnMaxOff[static_cast<std::size_t>(c)] = off;
  }
  return p;
}

}  // namespace

void ThermalModel::clearSharedTransientCacheForTest() { transientMemo.clear(); }

ThermalModel::ThermalModel(ThermalConfig config)
    : config_(std::move(config)), cores_(config_.floorplan.coreCount()) {
  HAYAT_REQUIRE(cores_ > 0, "thermal model needs at least one core");
  HAYAT_REQUIRE(config_.convectionResistance > 0.0,
                "convection resistance must be positive");
  build();
}

void ThermalModel::build() {
  const int n = nodeCount();
  const FloorPlan& fp = config_.floorplan;
  const GridShape& grid = fp.shape();
  const double tileArea = fp.tileArea();

  SparseMatrixBuilder builder(n, n);
  cap_.assign(static_cast<std::size_t>(n), 0.0);
  ambientLoad_.assign(static_cast<std::size_t>(n), 0.0);

  auto addConductance = [&](int a, int b, double gval) {
    HAYAT_DCHECK(gval > 0.0);
    builder.add(a, a, gval);
    builder.add(b, b, gval);
    builder.add(a, b, -gval);
    builder.add(b, a, -gval);
  };

  // Lateral conductance between adjacent tiles inside one layer:
  // G = k * (thickness * crossWidth) / centerDistance.
  auto lateralG = [&](double conductivity, double thickness, int a, int b) {
    const TilePos pa = grid.posOf(a);
    const TilePos pb = grid.posOf(b);
    const bool horizontal = pa.row == pb.row;
    const double crossWidth = horizontal ? fp.tileHeight() : fp.tileWidth();
    const double dist = horizontal ? fp.tileWidth() : fp.tileHeight();
    return conductivity * thickness * crossWidth / dist;
  };

  const int dieBase = 0;
  const int sprBase = cores_;
  const int sinkBase = 2 * cores_;

  // Intra-layer lateral conduction (visit each undirected edge once).
  for (int i = 0; i < cores_; ++i) {
    for (int j : grid.neighbors4(i)) {
      if (j <= i) continue;
      addConductance(dieBase + i, dieBase + j,
                     lateralG(config_.dieConductivity, config_.dieThickness,
                              i, j));
      addConductance(sprBase + i, sprBase + j,
                     lateralG(config_.spreaderConductivity,
                              config_.spreaderThickness, i, j));
      addConductance(sinkBase + i, sinkBase + j,
                     lateralG(config_.sinkConductivity, config_.sinkThickness,
                              i, j));
    }
  }

  // Vertical die -> spreader: half the die slab in series with the TIM and
  // half the spreader slab.
  const double gDieHalf =
      config_.dieConductivity * tileArea / (0.5 * config_.dieThickness);
  const double gTim = config_.timConductivity * tileArea / config_.timThickness;
  const double gSprHalf = config_.spreaderConductivity * tileArea /
                          (0.5 * config_.spreaderThickness);
  const double gDieSpr = seriesG(seriesG(gDieHalf, gTim), gSprHalf);

  // Vertical spreader -> sink: half spreader + mounting interface + half
  // sink slab.
  const double gMount = 1.0 / config_.spreaderSinkResistancePerTile;
  const double gSinkHalf =
      config_.sinkConductivity * tileArea / (0.5 * config_.sinkThickness);
  const double gSprSink = seriesG(seriesG(gSprHalf, gMount), gSinkHalf);

  // Sink -> ambient convection, package resistance shared by tile area.
  const double gConvPerTile =
      1.0 / (config_.convectionResistance * cores_);

  for (int i = 0; i < cores_; ++i) {
    addConductance(dieBase + i, sprBase + i, gDieSpr);
    addConductance(sprBase + i, sinkBase + i, gSprSink);
    // Convection is a conductance to the fixed ambient temperature: it
    // contributes to the diagonal and to the constant load vector.
    builder.add(sinkBase + i, sinkBase + i, gConvPerTile);
    ambientLoad_[static_cast<std::size_t>(sinkBase + i)] =
        gConvPerTile * config_.ambient;

    cap_[static_cast<std::size_t>(dieBase + i)] =
        config_.dieVolumetricHeat * tileArea * config_.dieThickness;
    cap_[static_cast<std::size_t>(sprBase + i)] =
        config_.spreaderVolumetricHeat * tileArea * config_.spreaderThickness;
    cap_[static_cast<std::size_t>(sinkBase + i)] =
        config_.sinkVolumetricHeat * tileArea * config_.sinkThickness;
  }

  sparse_ = builder.build();
  perm_ = reverseCuthillMcKee(sparse_);

  // Signature of everything that shaped sparse_ / cap_ / ambientLoad_:
  // same signature implies identical matrices, so steady kernels and
  // transient operators are interchangeable across models.
  signature_ = std::to_string(grid.rows()) + "x" +
               std::to_string(grid.cols()) + "," + fmtSig(fp.tileWidth()) +
               "," + fmtSig(fp.tileHeight()) + "," + fmtSig(config_.ambient) +
               "," + fmtSig(config_.dieThickness) + "," +
               fmtSig(config_.dieConductivity) + "," +
               fmtSig(config_.dieVolumetricHeat) + "," +
               fmtSig(config_.timThickness) + "," +
               fmtSig(config_.timConductivity) + "," +
               fmtSig(config_.spreaderThickness) + "," +
               fmtSig(config_.spreaderConductivity) + "," +
               fmtSig(config_.spreaderVolumetricHeat) + "," +
               fmtSig(config_.sinkThickness) + "," +
               fmtSig(config_.sinkConductivity) + "," +
               fmtSig(config_.sinkVolumetricHeat) + "," +
               fmtSig(config_.spreaderSinkResistancePerTile) + "," +
               fmtSig(config_.convectionResistance);

  steady_ = steadyMemo.obtain(backendKey(), [&] {
    const telemetry::Span span("thermal.steady_kernel");
    RcSolver solver(sparse_, perm_, config_.solver);
    Matrix influence = influenceMatrix(solver, cores_);
    InfluenceProfile profile = influenceProfile(influence);
    return std::make_shared<const SteadyKernel>(SteadyKernel{
        std::move(solver), std::move(influence), std::move(profile)});
  });
}

std::string ThermalModel::backendKey() const {
  // The backend is part of every memo key so banded and dense-reference
  // runs in one process never hand each other the wrong factorization.
  return signature_ +
         (config_.solver == RcSolver::Mode::Dense ? "|solver=dense"
                                                  : "|solver=band");
}

Vector ThermalModel::expandPower(const Vector& corePower) const {
  HAYAT_REQUIRE(static_cast<int>(corePower.size()) == cores_,
                "power vector size must equal core count");
  Vector nodePower(static_cast<std::size_t>(nodeCount()), 0.0);
  for (int i = 0; i < cores_; ++i) {
    HAYAT_REQUIRE(corePower[static_cast<std::size_t>(i)] >= 0.0,
                  "negative core power");
    nodePower[static_cast<std::size_t>(i)] =
        corePower[static_cast<std::size_t>(i)];
  }
  return nodePower;
}

Vector ThermalModel::steadyState(const Vector& corePower) const {
  Vector rhs = expandPower(corePower);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += ambientLoad_[i];
  Vector scratch;
  steady_->solver.solveInPlace(rhs, scratch);
  return rhs;
}

Vector ThermalModel::coreTemperatures(const Vector& nodeTemperatures) const {
  HAYAT_REQUIRE(static_cast<int>(nodeTemperatures.size()) == nodeCount(),
                "node temperature vector size mismatch");
  return Vector(nodeTemperatures.begin(), nodeTemperatures.begin() + cores_);
}

void ThermalModel::coreTemperaturesInto(const Vector& nodeTemperatures,
                                        Vector& out) const {
  HAYAT_REQUIRE(static_cast<int>(nodeTemperatures.size()) == nodeCount(),
                "node temperature vector size mismatch");
  out.resize(static_cast<std::size_t>(cores_));
  for (int i = 0; i < cores_; ++i)
    out[static_cast<std::size_t>(i)] =
        nodeTemperatures[static_cast<std::size_t>(i)];
}

Vector ThermalModel::steadyStateCoreTemperatures(const Vector& corePower) const {
  return coreTemperatures(steadyState(corePower));
}

std::shared_ptr<const ThermalModel::TransientOperator>
ThermalModel::transientOperator(Seconds dt) const {
  HAYAT_REQUIRE(dt > 0.0, "transient step must be positive");
  const std::string key = backendKey() + "|dt=" + fmtSig(dt);
  return transientMemo.obtain(key, [&] {
    const telemetry::Span span("thermal.lu_factor");
    const int n = nodeCount();
    Vector capOverDt(static_cast<std::size_t>(n));
    SparseMatrix a = sparse_;
    std::vector<double>& values = a.mutableValues();
    for (int i = 0; i < n; ++i) {
      const double c = cap_[static_cast<std::size_t>(i)] / dt;
      capOverDt[static_cast<std::size_t>(i)] = c;
      const int end = a.rowStart()[static_cast<std::size_t>(i) + 1];
      for (int k = a.rowStart()[static_cast<std::size_t>(i)]; k < end; ++k) {
        if (a.colIndex()[static_cast<std::size_t>(k)] != i) continue;
        values[static_cast<std::size_t>(k)] += c;
        break;
      }
    }
    return std::make_shared<const TransientOperator>(dt, std::move(capOverDt),
                                                     a, perm_, config_.solver);
  });
}

const Matrix& ThermalModel::coreInfluenceMatrix() const {
  return steady_->influence;
}

const ThermalModel::InfluenceProfile& ThermalModel::coreInfluenceProfile()
    const {
  return steady_->profile;
}

}  // namespace hayat
