// Shared 25-chip lifetime sweep behind Figs. 7-11.
//
// The paper evaluates VAA vs. Hayat "across 25 different chips" at
// minimum 25% and 50% dark silicon over a 10-year horizon.  Every figure
// bench consumes the same sweep; this module is now a thin adapter over
// the ExperimentEngine (src/engine): the engine expands the sweep spec
// into per-(chip, dark, policy) tasks, runs them on its worker pool, and
// caches the merged table under the spec-hash keyed result cache (by
// default hayat_cache/ in the working directory, i.e. under build/), so
// the sibling bench binaries executed back to back skip the recompute.
//
// Environment knobs for quick iterations:
//   HAYAT_CHIPS   — population size (default 25)
//   HAYAT_HORIZON — simulated years (default 10)
//   HAYAT_WORKERS — engine worker threads (default: hardware concurrency)
//   HAYAT_NO_CACHE — set to disable the result cache
#pragma once

#include <string>
#include <vector>

#include "core/lifetime.hpp"
#include "engine/engine.hpp"

namespace hayat::bench {

/// One (chip, policy, dark-fraction) lifetime outcome.
struct SweepRow {
  int chip = 0;
  std::string policy;       // "VAA" or "Hayat"
  double darkFraction = 0.5;
  long dtmEvents = 0;
  long migrations = 0;
  double tAvgOverAmbient = 0.0;   // Fig. 8 metric [K]
  double chipFmax0 = 0.0;         // [Hz] year 0
  double chipFmaxEnd = 0.0;       // [Hz] horizon end
  double avgFmax0 = 0.0;
  double avgFmaxEnd = 0.0;
  double throughputRatio = 1.0;  ///< mean achieved/required over epochs
  /// Average-fmax trajectory, one entry per epoch [Hz].
  std::vector<double> avgFmaxByEpoch;
};

/// Sweep settings (paper defaults).
struct SweepConfig {
  int chips = 25;
  Years horizon = 10.0;
  Years epochLength = 0.25;
  std::uint64_t populationSeed = 2015;
  std::uint64_t workloadSeed = 99;
  std::vector<double> darkFractions = {0.25, 0.50};
};

/// Applies the HAYAT_CHIPS / HAYAT_HORIZON environment overrides.
SweepConfig sweepConfigFromEnv();

/// The ExperimentSpec a SweepConfig expands to (exposed so benches can
/// tweak it — extra policies, repetitions — before running the engine).
engine::ExperimentSpec sweepSpec(const SweepConfig& config);

/// Flattens an engine run into SweepRows (table order preserved).
std::vector<SweepRow> toSweepRows(const engine::SweepTable& table);

/// Runs (or loads from the engine's result cache) the full sweep.
std::vector<SweepRow> runSweep(const SweepConfig& config);

/// Convenience selectors.
std::vector<SweepRow> select(const std::vector<SweepRow>& rows,
                             const std::string& policy, double darkFraction);

/// Aggregate ratio sum(metric over Hayat rows) / sum(metric over VAA
/// rows) for a given dark fraction — the normalization used by the
/// Fig. 7-10 style bars (robust to chips with zero events).
double aggregateRatio(const std::vector<SweepRow>& rows, double darkFraction,
                      double (*metric)(const SweepRow&));

}  // namespace hayat::bench
