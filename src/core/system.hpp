// System facade: one chip instance wired to its physical models.
//
// Examples, tests and benches all need the same assembly — generate a
// variation map, build the Chip (with its aging table), a ThermalModel
// for its floorplan, and a LeakageModel bound to its variation.  System
// owns that bundle with stable addresses so the cross-references stay
// valid, and SystemConfig centralizes every knob with the paper's
// Section V defaults.
#pragma once

#include <cstdint>
#include <memory>

#include "arch/chip.hpp"
#include "power/dynamic_power.hpp"
#include "power/leakage.hpp"
#include "runtime/epoch.hpp"
#include "thermal/thermal_model.hpp"
#include "variation/population.hpp"

namespace hayat {

/// Full experimental configuration (defaults reproduce Section V).
struct SystemConfig {
  PopulationConfig population;      ///< geometry + variation statistics
  NbtiConfig nbti;                  ///< Eq. (7) aging model
  AgingTableConfig agingTable;      ///< offline table layout
  LeakageConfig leakage;            ///< 1.18 W / 0.019 W, McPAT T-scaling
  ThermalConfig thermal;            ///< package RC parameters; the
                                    ///< floorplan is overwritten to match
                                    ///< the population geometry
  EpochConfig epoch;                ///< fine-grained window / DTM setup
  int pathsPerCore = 6;
  int elementsPerPath = 24;
};

/// One chip plus its bound physical models.
class System {
 public:
  /// Builds the system for chip `index` of the population seeded by
  /// `populationSeed`.  Only that chip is sampled (generateChip), bitwise
  /// equal to its place in the whole population.
  static System create(const SystemConfig& config, std::uint64_t populationSeed,
                       int index = 0);

  /// Builds a system directly from a variation map.
  System(const SystemConfig& config, VariationMap variation,
         std::uint64_t chipSeed);

  System(System&&) = default;
  System& operator=(System&&) = default;

  Chip& chip() { return *chip_; }
  const Chip& chip() const { return *chip_; }
  const ThermalModel& thermal() const { return *thermal_; }
  const LeakageModel& leakage() const { return *leakage_; }
  const SystemConfig& config() const { return config_; }

  /// Resets aging state to year 0 (same chip, fresh health) — used to
  /// run multiple policies on the *same* silicon.
  void resetHealth();

 private:
  SystemConfig config_;
  std::unique_ptr<Chip> chip_;
  std::unique_ptr<ThermalModel> thermal_;
  std::unique_ptr<LeakageModel> leakage_;
  std::uint64_t chipSeed_ = 0;
};

}  // namespace hayat
