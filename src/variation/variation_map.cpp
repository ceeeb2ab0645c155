#include "variation/variation_map.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hayat {

namespace {

/// Boltzmann constant over elementary charge [V/K]; VT = (k/q) * T.
constexpr double kBoltzmannOverCharge = 8.617333262e-5;

}  // namespace

VariationMap::VariationMap(const VariationMapConfig& config,
                           std::vector<double> theta, Rng& rng)
    : config_(config),
      pointGrid_(config.coreGrid.rows() * config.pointsPerCoreEdge,
                 config.coreGrid.cols() * config.pointsPerCoreEdge),
      theta_(std::move(theta)) {
  HAYAT_REQUIRE(config.pointsPerCoreEdge >= 1, "need >= 1 point per core edge");
  HAYAT_REQUIRE(static_cast<int>(theta_.size()) == pointGrid_.count(),
                "theta field size must match the point grid");
  const int pointsPerCore = config.pointsPerCoreEdge * config.pointsPerCoreEdge;
  HAYAT_REQUIRE(config.criticalPathPoints >= 1 &&
                    config.criticalPathPoints <= pointsPerCore,
                "critical path point count out of range");
  for (double t : theta_)
    HAYAT_REQUIRE(t > 0.0, "theta must stay positive; sigma too large?");

  const int cores = config.coreGrid.count();
  corePoints_.resize(static_cast<std::size_t>(cores));
  cpPoints_.resize(static_cast<std::size_t>(cores));
  fmax_.resize(static_cast<std::size_t>(cores));

  negVthDelta_.reserve(static_cast<std::size_t>(cores) *
                       static_cast<std::size_t>(pointsPerCore));

  const int ppe = config.pointsPerCoreEdge;
  for (int core = 0; core < cores; ++core) {
    const TilePos cp = config.coreGrid.posOf(core);
    auto& pts = corePoints_[static_cast<std::size_t>(core)];
    pts.reserve(static_cast<std::size_t>(pointsPerCore));
    for (int dr = 0; dr < ppe; ++dr)
      for (int dc = 0; dc < ppe; ++dc)
        pts.push_back(
            pointGrid_.indexOf({cp.row * ppe + dr, cp.col * ppe + dc}));
    for (int p : pts) negVthDelta_.push_back(-pointVthDelta(p));

    // Random subset of the core's grid points forms its critical path —
    // each chip's netlist placement differs, so the subset is sampled.
    std::vector<int> shuffled = pts;
    for (int i = static_cast<int>(shuffled.size()) - 1; i > 0; --i) {
      const int j = rng.uniformInt(i + 1);
      std::swap(shuffled[static_cast<std::size_t>(i)],
                shuffled[static_cast<std::size_t>(j)]);
    }
    auto& cps = cpPoints_[static_cast<std::size_t>(core)];
    cps.assign(shuffled.begin(),
               shuffled.begin() + config.criticalPathPoints);

    // Eq. (1): f_i = alpha * min over S_CP of (1 / theta).
    double worstTheta = 0.0;
    for (int p : cps)
      worstTheta = std::max(worstTheta, theta_[static_cast<std::size_t>(p)]);
    fmax_[static_cast<std::size_t>(core)] =
        config.nominalFrequency / worstTheta;
  }
}

double VariationMap::theta(int pointIndex) const {
  HAYAT_REQUIRE(pointIndex >= 0 && pointIndex < pointGrid_.count(),
                "point index out of range");
  return theta_[static_cast<std::size_t>(pointIndex)];
}

Hertz VariationMap::coreInitialFmax(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return fmax_[static_cast<std::size_t>(core)];
}

Volts VariationMap::pointVthDelta(int pointIndex) const {
  return config_.nominalVth * (theta(pointIndex) - 1.0);
}

Volts VariationMap::coreVthDelta(int core) const {
  const auto& pts = corePoints(core);
  double acc = 0.0;
  for (int p : pts) acc += pointVthDelta(p);
  return acc / static_cast<double>(pts.size());
}

double VariationMap::coreLeakageMultiplier(int core,
                                           Kelvin temperature) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  const double vt = kBoltzmannOverCharge * temperature;
  const double nvt = config_.subthresholdSlopeFactor * vt;
  const int count = config_.pointsPerCoreEdge * config_.pointsPerCoreEdge;
  const double* d = negVthDelta_.data() + static_cast<std::size_t>(core) *
                                              static_cast<std::size_t>(count);
  double acc = 0.0;
  for (int k = 0; k < count; ++k) acc += std::exp(d[k] / nvt);
  return acc / static_cast<double>(count);
}

const std::vector<int>& VariationMap::corePoints(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return corePoints_[static_cast<std::size_t>(core)];
}

const std::vector<int>& VariationMap::criticalPathPoints(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return cpPoints_[static_cast<std::size_t>(core)];
}

}  // namespace hayat
