// Chip-population generation: the paper evaluates "across 25 different
// chips" (Figs. 7-10); this module produces reproducible populations of
// VariationMap instances from a single seed.
#pragma once

#include <vector>

#include "common/geometry.hpp"
#include "common/units.hpp"
#include "variation/spatial_field.hpp"
#include "variation/variation_map.hpp"

namespace hayat {

/// Full configuration of the chip-population generator, combining the
/// physical floorplan with the statistical field parameters.
struct PopulationConfig {
  GridShape coreGrid{8, 8};
  Meters coreWidth = 1.70e-3;    ///< Fig. 2 caption
  Meters coreHeight = 1.75e-3;
  int pointsPerCoreEdge = 2;
  Hertz nominalFrequency = 3.0e9;
  Volts nominalVth = 0.40;
  double sigmaFraction = 0.085;  ///< sigma of theta (relative, mu = 1)
  double correlationRangeFraction = 0.5;  ///< fraction of chip edge length
  double globalFraction = 0.2;
  double nuggetFraction = 0.1;
  double subthresholdSlopeFactor = 2.5;
  int criticalPathPoints = 3;
};

/// The correlated field every chip of a `config` population is sampled
/// from: pointsPerCoreEdge^2 grid points per core.
SpatialFieldConfig populationFieldConfig(const PopulationConfig& config);

/// Generates `count` chips with independent variation maps.  A given
/// (config, seed) pair always produces the same population.
std::vector<VariationMap> generateChipPopulation(const PopulationConfig& config,
                                                 int count,
                                                 std::uint64_t seed);

/// Chip `index` of generateChipPopulation(config, n, seed) for any
/// n > index, bitwise, sampling that chip alone.
VariationMap generateChip(const PopulationConfig& config, std::uint64_t seed,
                          int index = 0);

/// Frequency spread of a chip: (fmax_best - fmax_worst) / fmax_mean across
/// its cores.  Section V reports 30-35% at 1.13 V, 3-4 GHz; the default
/// PopulationConfig is calibrated to land in that band (see tests).
double frequencySpread(const VariationMap& chip);

}  // namespace hayat
