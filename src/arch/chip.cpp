#include "arch/chip.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

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

/// Process-wide cache of aging tables, shared between same-recipe chips.
/// The paper calls the 3D table "only a start-up time effort for a given
/// chip"; a sweep's tasks rebuild the *same* chip (identical config and
/// seed) once per task, so without sharing every task pays the full
/// table-generation cost again.  Same idiom as the thermal model's
/// SharedTransientCache: strong references with a small LRU cap.
struct SharedAgingTableCache {
  std::mutex mutex;
  /// Most recently used at the back.
  std::vector<std::pair<std::string, std::shared_ptr<const AgingTable>>>
      entries;
};

SharedAgingTableCache& sharedAgingTableCache() {
  static SharedAgingTableCache* cache = [] {
    auto* c = new SharedAgingTableCache();  // never destroyed
    telemetry::holdAcrossFork(c->mutex);    // forked workers read it
    return c;
  }();
  return *cache;
}

constexpr std::size_t kSharedAgingTableCacheCap = 16;

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
  // The scalar reference lane (HAYAT_SCALAR_AGING=1) models the seed
  // stack, which generated a fresh table per chip — it bypasses the
  // cache so A/B comparisons time the original start-up cost.  Tables
  // also record the env flag at construction, so a cached batched-mode
  // table must never be handed to a scalar-mode chip (or vice versa).
  if (scalarAgingRequested())
    return std::make_shared<const AgingTable>(nbti, paths, config.agingTable);

  const std::string key = agingTableKey(config, seed);
  SharedAgingTableCache& shared = sharedAgingTableCache();
  const std::scoped_lock lock(shared.mutex);
  for (std::size_t i = 0; i < shared.entries.size(); ++i) {
    if (shared.entries[i].first != key) continue;
    auto entry = shared.entries[i];
    shared.entries.erase(shared.entries.begin() +
                         static_cast<std::ptrdiff_t>(i));
    shared.entries.push_back(entry);  // refresh LRU position
    if (telemetry::enabled()) {
      static telemetry::Counter& hits = telemetry::Registry::global().counter(
          "hayat_aging_table_shared_hits_total");
      hits.add();
    }
    return entry.second;
  }

  if (telemetry::enabled()) {
    static telemetry::Counter& misses = telemetry::Registry::global().counter(
        "hayat_aging_table_shared_misses_total");
    misses.add();
  }
  auto table =
      std::make_shared<const AgingTable>(nbti, paths, config.agingTable);
  shared.entries.emplace_back(key, table);
  if (shared.entries.size() > kSharedAgingTableCacheCap)
    shared.entries.erase(shared.entries.begin());
  return table;
}

}  // namespace

void Chip::clearSharedAgingTableCacheForTest() {
  SharedAgingTableCache& shared = sharedAgingTableCache();
  const std::scoped_lock lock(shared.mutex);
  shared.entries.clear();
}

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
