#include "core/system.hpp"

#include "common/error.hpp"

namespace hayat {

namespace {

ChipConfig chipConfigFrom(const SystemConfig& config) {
  ChipConfig cc;
  cc.floorplan = FloorPlan(config.population.coreGrid,
                           config.population.coreWidth,
                           config.population.coreHeight);
  cc.nbti = config.nbti;
  cc.agingTable = config.agingTable;
  cc.pathsPerCore = config.pathsPerCore;
  cc.elementsPerPath = config.elementsPerPath;
  return cc;
}

}  // namespace

System System::create(const SystemConfig& config, std::uint64_t populationSeed,
                      int index) {
  HAYAT_REQUIRE(index >= 0, "negative chip index");
  const std::uint64_t mix =
      std::uint64_t{0x9E3779B97F4A7C15} * static_cast<std::uint64_t>(index + 1);
  return System(config,
                generateChip(config.population, populationSeed, index),
                populationSeed ^ mix);
}

System::System(const SystemConfig& config, VariationMap variation,
               std::uint64_t chipSeed)
    : config_(config), chipSeed_(chipSeed) {
  ChipConfig cc = chipConfigFrom(config);
  chip_ = std::make_unique<Chip>(cc, std::move(variation), chipSeed);

  ThermalConfig tc = config.thermal;
  tc.floorplan = cc.floorplan;
  thermal_ = std::make_unique<ThermalModel>(tc);

  LeakageConfig lc = config.leakage;
  leakage_ = std::make_unique<LeakageModel>(lc, chip_->variation());
}

void System::resetHealth() {
  // Health is the chip's only mutable state; variation, paths, aging
  // table, and the leakage model are deterministic and unchanged, so a
  // health-only reset is bitwise-equivalent to rebuilding everything.
  chip_->resetHealth();
}

}  // namespace hayat
