// The manycore chip aggregate (Section III processor model).
//
// A Chip ties together one chip instance's physical floorplan, its
// realized process-variation map, its (mutable) health map, and its
// offline-generated aging machinery: the Eq. (7) NBTI model, the
// synthesized critical-path netlist, and the 3D aging table.  The aging
// table is "only a start-up time effort for a given chip", so Chip builds
// it once at construction; core-to-core differences enter through each
// core's position in the table (its accumulated degradation) and its
// variation-dependent initial frequency.
#pragma once

#include <cstdint>
#include <memory>

#include "aging/aging_table.hpp"
#include "aging/delay_model.hpp"
#include "aging/health.hpp"
#include "aging/nbti_model.hpp"
#include "common/geometry.hpp"
#include "variation/variation_map.hpp"

namespace hayat {

/// Construction parameters of a chip instance.
struct ChipConfig {
  FloorPlan floorplan;
  NbtiConfig nbti;
  AgingTableConfig agingTable;
  int pathsPerCore = 6;       ///< top-x% critical paths in the netlist
  int elementsPerPath = 24;   ///< cells per synthesized path
};

/// One chip: geometry + variation + aging state.
class Chip {
 public:
  /// Builds the chip, synthesizing its critical-path netlist and aging
  /// table from `seed` (deterministic per seed).  The variation map's
  /// core grid must match the floorplan.
  Chip(ChipConfig config, VariationMap variation, std::uint64_t seed);

  int coreCount() const { return floorplan_.coreCount(); }
  const FloorPlan& floorplan() const { return floorplan_; }
  const GridShape& grid() const { return floorplan_.shape(); }

  const VariationMap& variation() const { return variation_; }
  const NbtiModel& nbti() const { return nbti_; }
  const AgingTable& agingTable() const { return *agingTable_; }

  /// Mutable health map — the epoch manager advances it.
  HealthMap& health() { return health_; }
  const HealthMap& health() const { return health_; }

  /// Year-0 fmax of core i (from the variation map).
  Hertz initialFmax(int core) const { return health_.initialFmax(core); }

  /// Present (aged) fmax of core i.
  Hertz currentFmax(int core) const { return health_.currentFmax(core); }

  /// Largest present fmax over the chip (the "Chip fmax" of Fig. 9).
  Hertz chipFmax() const;

  /// Mean present fmax over the chip (the metric of Figs. 10/11).
  Hertz averageFmax() const;

  /// Restores year-0 health on the same silicon.  The variation map,
  /// critical-path netlist, and aging table are deterministic in
  /// (config, seed) and immutable, so this is bitwise-equivalent to
  /// reconstructing the chip — without regenerating the aging table.
  void resetHealth();

  /// Empties the process-wide shared aging-table cache.  Tables are
  /// deterministic in (config, seed), so same-recipe chips share one
  /// immutable table; the scalar reference lane
  /// (AgingTableConfig::scalarReference) bypasses the cache and always
  /// builds fresh, modeling the seed's per-task start-up cost.
  static void clearSharedAgingTableCacheForTest();

 private:
  FloorPlan floorplan_;
  VariationMap variation_;
  NbtiModel nbti_;
  CorePathSet paths_;
  std::shared_ptr<const AgingTable> agingTable_;
  HealthMap health_;
};

}  // namespace hayat
