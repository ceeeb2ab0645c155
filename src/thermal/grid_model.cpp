#include "thermal/grid_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hayat {

namespace {

double seriesG(double a, double b) {
  HAYAT_DCHECK(a > 0.0 && b > 0.0);
  return a * b / (a + b);
}

}  // namespace

GridThermalModel::GridThermalModel(GridThermalConfig config)
    : config_(std::move(config)),
      cores_(config_.base.floorplan.coreCount()),
      subGrid_(config_.base.floorplan.shape().rows() * config_.subdivision,
               config_.base.floorplan.shape().cols() * config_.subdivision) {
  HAYAT_REQUIRE(cores_ > 0, "grid thermal model needs at least one core");
  HAYAT_REQUIRE(config_.subdivision >= 1, "subdivision must be >= 1");
  dieNodes_ = subGrid_.count();
  build();
}

std::vector<int> GridThermalModel::coreSubBlocks(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < cores_, "core index out of range");
  const int s = config_.subdivision;
  const TilePos p = config_.base.floorplan.shape().posOf(core);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(s * s));
  for (int dr = 0; dr < s; ++dr)
    for (int dc = 0; dc < s; ++dc)
      out.push_back(subGrid_.indexOf({p.row * s + dr, p.col * s + dc}));
  return out;
}

void GridThermalModel::build() {
  const ThermalConfig& base = config_.base;
  const FloorPlan& fp = base.floorplan;
  const int s = config_.subdivision;
  const double subW = fp.tileWidth() / s;
  const double subH = fp.tileHeight() / s;
  const double subArea = subW * subH;
  const int n = nodeCount();
  const int sprBase = dieNodes_;
  const int sinkBase = dieNodes_ + cores_;

  SparseMatrixBuilder builder(n, n);
  ambientLoad_.assign(static_cast<std::size_t>(n), 0.0);

  auto addConductance = [&](int a, int b, double gval) {
    HAYAT_DCHECK(gval > 0.0);
    builder.add(a, a, gval);
    builder.add(b, b, gval);
    builder.add(a, b, -gval);
    builder.add(b, a, -gval);
  };

  // Fine die grid: lateral conduction between adjacent sub-blocks.
  for (int i = 0; i < dieNodes_; ++i) {
    for (int j : subGrid_.neighbors4(i)) {
      if (j <= i) continue;
      const TilePos pa = subGrid_.posOf(i);
      const TilePos pb = subGrid_.posOf(j);
      const bool horizontal = pa.row == pb.row;
      const double crossWidth = horizontal ? subH : subW;
      const double dist = horizontal ? subW : subH;
      addConductance(i, j,
                     base.dieConductivity * base.dieThickness * crossWidth /
                         dist);
    }
  }

  // Vertical: each sub-block -> its tile's spreader node, through half
  // the die, the TIM share, and half the spreader (matching the block
  // model's stack, scaled by the sub-block area).
  const double gDieHalf =
      base.dieConductivity * subArea / (0.5 * base.dieThickness);
  const double gTim = base.timConductivity * subArea / base.timThickness;
  const double gSprHalfSub = base.spreaderConductivity * subArea /
                             (0.5 * base.spreaderThickness);
  const double gDieSpr = seriesG(seriesG(gDieHalf, gTim), gSprHalfSub);

  for (int core = 0; core < cores_; ++core)
    for (int sub : coreSubBlocks(core))
      addConductance(sub, sprBase + core, gDieSpr);

  // Spreader lateral + spreader->sink + sink lateral + convection: same
  // construction as the block model (tile resolution).
  const GridShape& tileGrid = fp.shape();
  auto lateralG = [&](double conductivity, double thickness, int a, int b) {
    const TilePos pa = tileGrid.posOf(a);
    const TilePos pb = tileGrid.posOf(b);
    const bool horizontal = pa.row == pb.row;
    const double crossWidth = horizontal ? fp.tileHeight() : fp.tileWidth();
    const double dist = horizontal ? fp.tileWidth() : fp.tileHeight();
    return conductivity * thickness * crossWidth / dist;
  };
  for (int i = 0; i < cores_; ++i) {
    for (int j : tileGrid.neighbors4(i)) {
      if (j <= i) continue;
      addConductance(sprBase + i, sprBase + j,
                     lateralG(base.spreaderConductivity,
                              base.spreaderThickness, i, j));
      addConductance(sinkBase + i, sinkBase + j,
                     lateralG(base.sinkConductivity, base.sinkThickness, i,
                              j));
    }
  }
  const double tileArea = fp.tileArea();
  const double gSprHalfTile = base.spreaderConductivity * tileArea /
                              (0.5 * base.spreaderThickness);
  const double gMount = 1.0 / base.spreaderSinkResistancePerTile;
  const double gSinkHalf =
      base.sinkConductivity * tileArea / (0.5 * base.sinkThickness);
  const double gSprSink = seriesG(seriesG(gSprHalfTile, gMount), gSinkHalf);
  const double gConvPerTile = 1.0 / (base.convectionResistance * cores_);
  for (int i = 0; i < cores_; ++i) {
    addConductance(sprBase + i, sinkBase + i, gSprSink);
    builder.add(sinkBase + i, sinkBase + i, gConvPerTile);
    ambientLoad_[static_cast<std::size_t>(sinkBase + i)] =
        gConvPerTile * base.ambient;
  }

  g_ = builder.build();
  perm_ = reverseCuthillMcKee(g_);
  steadySolver_ = std::make_unique<RcSolver>(g_, perm_, base.solver);
}

Vector GridThermalModel::steadyStateSubBlocks(
    const Vector& subBlockPower) const {
  HAYAT_REQUIRE(static_cast<int>(subBlockPower.size()) == dieNodes_,
                "sub-block power vector size mismatch");
  Vector rhs = ambientLoad_;
  for (int i = 0; i < dieNodes_; ++i) {
    HAYAT_REQUIRE(subBlockPower[static_cast<std::size_t>(i)] >= 0.0,
                  "negative sub-block power");
    rhs[static_cast<std::size_t>(i)] +=
        subBlockPower[static_cast<std::size_t>(i)];
  }
  Vector scratch;
  steadySolver_->solveInPlace(rhs, scratch);
  return rhs;
}

Vector GridThermalModel::steadyState(const Vector& corePower) const {
  HAYAT_REQUIRE(static_cast<int>(corePower.size()) == cores_,
                "core power vector size mismatch");
  Vector sub(static_cast<std::size_t>(dieNodes_), 0.0);
  const double share = 1.0 / subBlocksPerCore();
  for (int core = 0; core < cores_; ++core)
    for (int i : coreSubBlocks(core))
      sub[static_cast<std::size_t>(i)] =
          corePower[static_cast<std::size_t>(core)] * share;
  return steadyStateSubBlocks(sub);
}

Vector GridThermalModel::coreTemperatures(
    const Vector& nodeTemperatures) const {
  HAYAT_REQUIRE(static_cast<int>(nodeTemperatures.size()) == nodeCount(),
                "node temperature vector size mismatch");
  Vector out(static_cast<std::size_t>(cores_), 0.0);
  for (int core = 0; core < cores_; ++core) {
    double acc = 0.0;
    const auto blocks = coreSubBlocks(core);
    for (int i : blocks) acc += nodeTemperatures[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(core)] =
        acc / static_cast<double>(blocks.size());
  }
  return out;
}

Vector GridThermalModel::corePeakTemperatures(
    const Vector& nodeTemperatures) const {
  HAYAT_REQUIRE(static_cast<int>(nodeTemperatures.size()) == nodeCount(),
                "node temperature vector size mismatch");
  Vector out(static_cast<std::size_t>(cores_), 0.0);
  for (int core = 0; core < cores_; ++core) {
    double peak = 0.0;
    for (int i : coreSubBlocks(core))
      peak = std::max(peak, nodeTemperatures[static_cast<std::size_t>(i)]);
    out[static_cast<std::size_t>(core)] = peak;
  }
  return out;
}

Vector GridThermalModel::subBlockTemperatures(
    const Vector& nodeTemperatures) const {
  HAYAT_REQUIRE(static_cast<int>(nodeTemperatures.size()) == nodeCount(),
                "node temperature vector size mismatch");
  return Vector(nodeTemperatures.begin(),
                nodeTemperatures.begin() + dieNodes_);
}

}  // namespace hayat
