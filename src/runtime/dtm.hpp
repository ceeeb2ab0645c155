// Dynamic Thermal Management (Section V).
//
// "As with this transient thermal simulation, a maximum safe temperature
// Tsafe ... might be reached, DTM will migrate threads from the hottest
// cores >= Tsafe to the coldest cores, if they are within Tsafe - 10 C,
// or throttle them if this is not possible."
//
// The DTM is reactive and policy-agnostic: both Hayat and the VAA
// baseline run under the same DTM, and the number of DTM events is itself
// an evaluation metric (Fig. 7) — a proactive mapping that avoids thermal
// emergencies needs fewer reactive interventions.
#pragma once

#include <vector>

#include "aging/health.hpp"
#include "common/matrix.hpp"
#include "common/units.hpp"
#include "runtime/mapping.hpp"

namespace hayat {

/// DTM trigger thresholds and throttle behaviour.
struct DtmConfig {
  Kelvin tsafe = 368.15;       ///< 95 C (Section V)
  Kelvin coldMargin = 10.0;    ///< migration target must be <= tsafe - this
  double throttleFactor = 0.5; ///< frequency multiplier per throttle event
  Hertz minimumFrequency = 0.2e9;  ///< throttle floor
  /// Minimum number of DTM evaluations between two migrations of the
  /// same thread.  Models the real cost of migration (state transfer,
  /// cache warm-up) and suppresses hot<->cold ping-pong; a thread inside
  /// its cooldown throttles instead.
  int migrationCooldownChecks = 5;
};

/// Cumulative DTM activity (normalized in Fig. 7).
struct DtmStats {
  long migrations = 0;
  long throttles = 0;
  long restores = 0;

  long events() const { return migrations + throttles; }
};

/// The reactive DTM controller.
class DtmManager {
 public:
  explicit DtmManager(DtmConfig config = {});

  const DtmConfig& config() const { return config_; }
  const DtmStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// One DTM evaluation at the current sensor temperatures.  Mutates the
  /// mapping: migrates threads off cores at/above Tsafe onto the coldest
  /// eligible dark core (cold enough AND fast enough for the thread),
  /// throttles when no eligible target exists, and restores previously
  /// throttled threads whose cores have cooled below Tsafe - margin.
  /// Returns the number of migrations + throttles performed this call.
  int enforce(Mapping& mapping, const Vector& coreTemperatures,
              const HealthMap& health);

  /// Sizes every table enforce() uses for `mix` on `cores` cores, so a
  /// window's enforce() calls allocate nothing, migrations included.
  /// Optional: enforce() grows the tables itself when needed.
  void reserve(int cores, const WorkloadMix& mix);

 private:
  /// An idle core cold enough to take a migrating thread.
  struct Target {
    double temperature;
    int core;
  };

  /// The last-migration tick slot of a thread (kNever until its first
  /// migration), growing the table when the thread lies outside it.
  long& lastMigration(const ThreadRef& ref);

  static constexpr long kNever = -1;

  DtmConfig config_;
  DtmStats stats_;
  long tick_ = 0;
  /// Last migration tick per thread, flat: slot app * threadStride_ +
  /// thread.
  std::vector<long> lastMigration_;
  int threadStride_ = 0;
  /// Hot-core work list and migration-target pool, kept as members so
  /// enforce() reuses their storage.
  std::vector<int> hotScratch_;
  std::vector<Target> pool_;
};

}  // namespace hayat
