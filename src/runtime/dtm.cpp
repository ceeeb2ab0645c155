#include "runtime/dtm.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace hayat {

namespace {

telemetry::Counter& restoresTotal =
    telemetry::Registry::global().counter("hayat_dtm_restores_total");
telemetry::Counter& migrationsTotal =
    telemetry::Registry::global().counter("hayat_dtm_migrations_total");
telemetry::Counter& throttlesTotal =
    telemetry::Registry::global().counter("hayat_dtm_throttles_total");

}  // namespace

DtmManager::DtmManager(DtmConfig config) : config_(config) {
  HAYAT_REQUIRE(config.tsafe > 0.0, "tsafe must be positive kelvin");
  HAYAT_REQUIRE(config.coldMargin >= 0.0, "cold margin must be non-negative");
  HAYAT_REQUIRE(config.throttleFactor > 0.0 && config.throttleFactor < 1.0,
                "throttle factor must be in (0, 1)");
  HAYAT_REQUIRE(config.minimumFrequency > 0.0,
                "throttle floor must be positive");
}

void DtmManager::reserve(int cores, const WorkloadMix& mix) {
  int stride = threadStride_;
  for (const Application& app : mix.applications)
    stride = std::max(stride, app.maxThreads());
  const int apps = static_cast<int>(mix.applications.size());
  if (apps > 0 && stride > 0)
    lastMigration(ThreadRef{apps - 1, stride - 1});
  hotScratch_.reserve(static_cast<std::size_t>(cores));
  pool_.reserve(static_cast<std::size_t>(cores));
}

long& DtmManager::lastMigration(const ThreadRef& ref) {
  HAYAT_REQUIRE(ref.app >= 0 && ref.thread >= 0, "negative thread reference");
  const int apps =
      threadStride_ > 0
          ? static_cast<int>(lastMigration_.size()) / threadStride_
          : 0;
  if (ref.app >= apps || ref.thread >= threadStride_) {
    // Re-lay the table out at the larger shape, keeping every tick.
    const int newStride = std::max(threadStride_, ref.thread + 1);
    const int newApps = std::max(apps, ref.app + 1);
    std::vector<long> grown(static_cast<std::size_t>(newApps) *
                                static_cast<std::size_t>(newStride),
                            kNever);
    for (int a = 0; a < apps; ++a)
      std::copy_n(lastMigration_.begin() +
                      static_cast<std::ptrdiff_t>(a) * threadStride_,
                  threadStride_,
                  grown.begin() + static_cast<std::ptrdiff_t>(a) * newStride);
    lastMigration_ = std::move(grown);
    threadStride_ = newStride;
  }
  return lastMigration_[static_cast<std::size_t>(ref.app) *
                            static_cast<std::size_t>(threadStride_) +
                        static_cast<std::size_t>(ref.thread)];
}

int DtmManager::enforce(Mapping& mapping, const Vector& coreTemperatures,
                        const HealthMap& health) {
  const int n = mapping.coreCount();
  HAYAT_REQUIRE(static_cast<int>(coreTemperatures.size()) == n,
                "temperature vector size mismatch");
  HAYAT_REQUIRE(health.coreCount() == n, "health map size mismatch");

  ++tick_;
  int actions = 0;
  const double coldLimit = config_.tsafe - config_.coldMargin;

  // One pass: restore throttled threads whose cores have recovered, and
  // collect the hot cores (a restore changes only a frequency, never
  // which cores are busy).
  std::vector<int>& hot = hotScratch_;
  hot.clear();
  for (int i = 0; i < n; ++i) {
    const auto& slot = mapping.onCore(i);
    if (!slot.has_value()) continue;
    const double t = coreTemperatures[static_cast<std::size_t>(i)];
    if (slot->frequency < slot->requiredFrequency && t < coldLimit) {
      mapping.restoreFrequency(i);
      ++stats_.restores;
      if (telemetry::enabled()) restoresTotal.add();
    }
    if (t >= config_.tsafe) hot.push_back(i);
  }
  if (hot.empty()) return 0;
  // Hottest first.
  std::sort(hot.begin(), hot.end(), [&](int a, int b) {
    return coreTemperatures[static_cast<std::size_t>(a)] >
           coreTemperatures[static_cast<std::size_t>(b)];
  });

  // The migration targets, coldest first (ties by index): every idle
  // core at or below the cold limit.  A hot core takes the first entry
  // fast enough for its thread — the coldest eligible core, the same
  // pick as a scan over all cores — and that entry leaves the pool.
  const auto colder = [](const Target& a, const Target& b) {
    return a.temperature != b.temperature ? a.temperature < b.temperature
                                          : a.core < b.core;
  };
  pool_.clear();
  for (int i = 0; i < n; ++i) {
    const double t = coreTemperatures[static_cast<std::size_t>(i)];
    if (!mapping.coreBusy(i) && !(t > coldLimit)) pool_.push_back({t, i});
  }
  std::sort(pool_.begin(), pool_.end(), colder);

  for (int hotCore : hot) {
    const auto& slot = mapping.onCore(hotCore);
    HAYAT_DCHECK(slot.has_value());
    const Hertz required = slot->requiredFrequency;
    long& last = lastMigration(slot->ref);
    const bool inCooldown =
        last != kNever && tick_ - last < config_.migrationCooldownChecks;

    auto target = pool_.end();
    if (!inCooldown)
      target = std::find_if(pool_.begin(), pool_.end(), [&](const Target& c) {
        return health.currentFmax(c.core) >= required;
      });

    if (target != pool_.end()) {
      mapping.migrate(hotCore, target->core);
      pool_.erase(target);
      // The vacated core joins the pool when it is itself cold enough
      // (only possible at a zero cold margin).
      const double t = coreTemperatures[static_cast<std::size_t>(hotCore)];
      if (!(t > coldLimit)) {
        const Target vacated{t, hotCore};
        pool_.insert(
            std::lower_bound(pool_.begin(), pool_.end(), vacated, colder),
            vacated);
      }
      last = tick_;
      ++stats_.migrations;
      if (telemetry::enabled()) migrationsTotal.add();
      ++actions;
    } else {
      // No eligible target: throttle in place (never below the floor).
      const Hertz throttled =
          std::max(config_.minimumFrequency,
                   slot->frequency * config_.throttleFactor);
      if (throttled < slot->frequency) {
        mapping.setFrequency(hotCore, throttled);
        ++stats_.throttles;
        if (telemetry::enabled()) throttlesTotal.add();
        ++actions;
      }
    }
  }
  return actions;
}

}  // namespace hayat
