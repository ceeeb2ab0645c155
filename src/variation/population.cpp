#include "variation/population.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/shared_memo.hpp"
#include "variation/spatial_field.hpp"

namespace hayat {

namespace {

VariationMapConfig mapConfigFrom(const PopulationConfig& config) {
  VariationMapConfig mc;
  mc.coreGrid = config.coreGrid;
  mc.pointsPerCoreEdge = config.pointsPerCoreEdge;
  mc.nominalFrequency = config.nominalFrequency;
  mc.nominalVth = config.nominalVth;
  mc.subthresholdSlopeFactor = config.subthresholdSlopeFactor;
  mc.criticalPathPoints = config.criticalPathPoints;
  return mc;
}

/// Resamples until every theta is positive (an sigma=13% field almost
/// never produces non-positive values, but the guarantee keeps Eq. (1)
/// well-defined for any configuration).
std::vector<double> samplePositiveField(const SpatialFieldSampler& sampler,
                                        Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Vector field = sampler.sample(rng);
    if (std::all_of(field.begin(), field.end(),
                    [](double t) { return t > 0.05; }))
      return field;
  }
  throw Error("variation field keeps producing non-positive theta; "
              "sigmaFraction is unphysically large");
}

/// Factored samplers shared across sweep tasks.  The Cholesky factor is
/// a pure function of the field config and dominates population cost
/// (the factorization is cubic in grid points); every task generates
/// its chip from the same config, so only the O(m^2) sampling runs per
/// chip.  Sharing changes no results: the shared factor is bitwise the
/// one a fresh construction would produce.
constexpr std::size_t kSamplerMemoCap = 8;
SharedMemo<SpatialFieldSampler>& samplerMemo =
    *new SharedMemo<SpatialFieldSampler>(
        kSamplerMemoCap, "hayat_variation_sampler_shared_hits_total",
        "hayat_variation_sampler_shared_misses_total",
        "hayat_variation_sampler_build_seconds");

std::string fieldKey(const SpatialFieldConfig& fc) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%dx%d|%a|%a|%a|%a|%a|%a|%a",
                fc.grid.rows(), fc.grid.cols(), fc.pointSpacingX,
                fc.pointSpacingY, fc.mean, fc.sigma, fc.correlationRange,
                fc.globalFraction, fc.nuggetFraction);
  return buf;
}

/// Chips first .. first + count - 1 of the population of `seed`.  Chip
/// i draws only from the root's (i + 1)-th split, so the chips before
/// `first` are skipped by splitting without sampling them.
std::vector<VariationMap> generateChips(const PopulationConfig& config,
                                        int first, int count,
                                        std::uint64_t seed) {
  const SpatialFieldConfig fc = populationFieldConfig(config);
  const std::shared_ptr<const SpatialFieldSampler> samplerPtr =
      samplerMemo.obtain(fieldKey(fc), [&] {
        return std::make_shared<const SpatialFieldSampler>(fc);
      });
  const SpatialFieldSampler& sampler = *samplerPtr;
  const VariationMapConfig mapConfig = mapConfigFrom(config);
  Rng root(seed);
  for (int i = 0; i < first; ++i) root.split();
  std::vector<VariationMap> chips;
  chips.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Rng chipRng = root.split();
    std::vector<double> field = samplePositiveField(sampler, chipRng);
    chips.emplace_back(mapConfig, std::move(field), chipRng);
  }
  return chips;
}

}  // namespace

SpatialFieldConfig populationFieldConfig(const PopulationConfig& config) {
  SpatialFieldConfig fc;
  fc.grid = GridShape(config.coreGrid.rows() * config.pointsPerCoreEdge,
                      config.coreGrid.cols() * config.pointsPerCoreEdge);
  fc.pointSpacingX = config.coreWidth / config.pointsPerCoreEdge;
  fc.pointSpacingY = config.coreHeight / config.pointsPerCoreEdge;
  fc.mean = 1.0;
  fc.sigma = config.sigmaFraction;
  const Meters chipEdge =
      std::max(config.coreWidth * config.coreGrid.cols(),
               config.coreHeight * config.coreGrid.rows());
  fc.correlationRange = config.correlationRangeFraction * chipEdge;
  fc.globalFraction = config.globalFraction;
  fc.nuggetFraction = config.nuggetFraction;
  return fc;
}

std::vector<VariationMap> generateChipPopulation(const PopulationConfig& config,
                                                 int count,
                                                 std::uint64_t seed) {
  HAYAT_REQUIRE(count >= 0, "negative population size");
  return generateChips(config, 0, count, seed);
}

VariationMap generateChip(const PopulationConfig& config, std::uint64_t seed,
                          int index) {
  HAYAT_REQUIRE(index >= 0, "negative chip index");
  return std::move(generateChips(config, index, 1, seed).front());
}

double frequencySpread(const VariationMap& chip) {
  double lo = chip.coreInitialFmax(0);
  double hi = lo;
  double sum = 0.0;
  for (int i = 0; i < chip.coreCount(); ++i) {
    const double f = chip.coreInitialFmax(i);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    sum += f;
  }
  const double meanF = sum / chip.coreCount();
  return (hi - lo) / meanF;
}

}  // namespace hayat
