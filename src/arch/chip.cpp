#include "arch/chip.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/shared_memo.hpp"

namespace hayat {

namespace {

std::vector<Hertz> initialFrequencies(const VariationMap& variation) {
  std::vector<Hertz> f(static_cast<std::size_t>(variation.coreCount()));
  for (int i = 0; i < variation.coreCount(); ++i)
    f[static_cast<std::size_t>(i)] = variation.coreInitialFmax(i);
  return f;
}

CorePathSet synthesizePaths(const ChipConfig& config, std::uint64_t seed) {
  Rng rng(seed ^ 0xA5A5A5A5DEADBEEFull);
  return CorePathSet::synthesize(rng, config.pathsPerCore,
                                 config.elementsPerPath);
}

/// Aging tables shared between same-recipe chips: a sweep's tasks
/// rebuild the *same* chip (identical config and seed) once per task.
constexpr std::size_t kAgingTableMemoCap = 16;
SharedMemo<AgingTable>& agingTableMemo = *new SharedMemo<AgingTable>(
    kAgingTableMemoCap, "hayat_aging_table_shared_hits_total",
    "hayat_aging_table_shared_misses_total",
    "hayat_aging_table_build_seconds");

/// Exact (%a — no rounding) rendering of a double for the cache key.
void appendExact(std::string& key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a|", v);
  key += buf;
}

/// Everything AgingTable construction depends on: the NBTI recipe, the
/// table axes, and the synthesized critical-path netlist (a pure function
/// of pathsPerCore, elementsPerPath, and the chip seed).
std::string agingTableKey(const ChipConfig& config, std::uint64_t seed) {
  std::string key;
  key.reserve(256);
  appendExact(key, config.nbti.vdd);
  appendExact(key, config.nbti.nominalVth);
  appendExact(key, config.nbti.techScale);
  appendExact(key, config.nbti.alphaPower);
  appendExact(key, config.nbti.timeExponent);
  appendExact(key, config.agingTable.temperatureMin);
  appendExact(key, config.agingTable.temperatureMax);
  appendExact(key, config.agingTable.maxAge);
  key += std::to_string(config.agingTable.temperaturePoints) + "|" +
         std::to_string(config.agingTable.dutyPoints) + "|" +
         std::to_string(config.pathsPerCore) + "|" +
         std::to_string(config.elementsPerPath) + "|" +
         std::to_string(seed);
  return key;
}

std::shared_ptr<const AgingTable> obtainAgingTable(const ChipConfig& config,
                                                   const NbtiModel& nbti,
                                                   const CorePathSet& paths,
                                                   std::uint64_t seed) {
  // The scalar reference lane models the seed stack, which generated a
  // fresh table per chip — it bypasses the cache so A/B comparisons time
  // the original start-up cost.  The cache key leaves the flag out, so
  // this bypass is also what keeps a batched-mode table from being
  // handed to a scalar-mode chip (or vice versa).
  if (config.agingTable.scalarReference)
    return std::make_shared<const AgingTable>(nbti, paths, config.agingTable);

  return agingTableMemo.obtain(agingTableKey(config, seed), [&] {
    return std::make_shared<const AgingTable>(nbti, paths, config.agingTable);
  });
}

}  // namespace

void Chip::clearSharedAgingTableCacheForTest() { agingTableMemo.clear(); }

Chip::Chip(ChipConfig config, VariationMap variation, std::uint64_t seed)
    : floorplan_(config.floorplan),
      variation_(std::move(variation)),
      nbti_(config.nbti),
      paths_(synthesizePaths(config, seed)),
      agingTable_(obtainAgingTable(config, nbti_, paths_, seed)),
      health_(initialFrequencies(variation_)) {
  HAYAT_REQUIRE(variation_.coreGrid().rows() == floorplan_.shape().rows() &&
                    variation_.coreGrid().cols() == floorplan_.shape().cols(),
                "variation map grid must match the floorplan");
}

Hertz Chip::chipFmax() const {
  Hertz best = 0.0;
  for (int i = 0; i < coreCount(); ++i) best = std::max(best, currentFmax(i));
  return best;
}

Hertz Chip::averageFmax() const {
  Hertz acc = 0.0;
  for (int i = 0; i < coreCount(); ++i) acc += currentFmax(i);
  return acc / coreCount();
}

void Chip::resetHealth() { health_ = HealthMap(initialFrequencies(variation_)); }

}  // namespace hayat
