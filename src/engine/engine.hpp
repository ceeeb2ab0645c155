// ExperimentEngine — parallel execution of ExperimentSpecs.
//
// The engine expands a spec into independent RunTasks (one per
// chip x dark fraction x policy x repetition), executes them on a
// std::thread worker pool with one System and one policy instance per
// task (no shared mutable state), and merges the results by task index —
// so the merged SweepTable is bit-identical to a serial run regardless of
// worker count.  Results are cached on disk keyed by the spec hash
// (experiment.hpp): re-running an unchanged spec loads the table without
// a single EpochSimulator call.
//
// Execution is in-process by default; setting a dispatch spec (the
// EngineConfig or HAYAT_DISPATCH) farms the tasks out to worker
// *processes* instead — forked locally, exec'd hayat binaries, or remote
// `hayat worker --listen` servers over TCP.  run() then builds a
// SweepScheduler (scheduler.hpp, the lane layer `hayat serve` also runs
// on) with one lane per endpoint slot, attaches the spec and waits for
// every row.  The merge is by task index either way, so the table stays
// bit-identical to a serial run for any topology, and a lane whose
// worker cannot be reached runs its tasks on its own thread.  The result
// cache is consulted and written here on the coordinator only; tcp
// workers get each entry pushed back (warm-cache push), fork/exec
// workers share this host's disk.
//
// Environment knobs (all optional):
//   HAYAT_WORKERS    — worker thread count (default: hardware concurrency)
//   HAYAT_DISPATCH   — distributed dispatch spec, e.g. "proc:4" or
//                      "proc:2,tcp:10.0.0.5:7707" (default: in-process)
//   HAYAT_WORKER_BIN — binary exec'd for "exec:N" workers (default: hayat)
//   HAYAT_CACHE_DIR  — result-cache directory (default: ./hayat_cache)
//   HAYAT_NO_CACHE   — disable the result cache entirely
//   HAYAT_TELEMETRY  — telemetry export directory (enables collection;
//                      see src/telemetry/telemetry.hpp)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/task_pool.hpp"

namespace hayat::engine {

/// One expanded unit of work: a single (chip, policy, dark, repetition)
/// lifetime run with every seed resolved.
struct RunTask {
  int index = 0;        ///< position in the merged result table
  int chip = 0;
  int repetition = 0;
  double darkFraction = 0.5;
  PolicySpec policy;
  SystemConfig system;      ///< thermalSensorSeed resolved
  LifetimeConfig lifetime;  ///< dark fraction + seeds resolved
};

/// The outcome of one RunTask: identity columns plus the full lifetime
/// trace (everything any figure bench consumes).
struct RunResult {
  int chip = 0;
  int repetition = 0;
  double darkFraction = 0.5;
  std::string policy;       ///< PolicySpec label
  Kelvin ambient = 0.0;     ///< for temperature-over-ambient metrics
  LifetimeResult lifetime;

  /// Mean achieved/required throughput over the epochs.
  double throughputRatio() const;
};

/// The merged result table with the selection helpers the figure benches
/// share.
struct SweepTable {
  std::vector<RunResult> runs;

  /// Runs of one (policy label, dark fraction) cell, in table order.
  std::vector<const RunResult*> select(const std::string& policy,
                                       double darkFraction) const;

  /// sum(metric over `numerator` runs) / sum(metric over `denominator`
  /// runs) at a dark fraction — the VAA-normalized bars of Figs. 7-10.
  /// Throws if the denominator aggregates to zero.
  double aggregateRatio(double darkFraction,
                        double (*metric)(const RunResult&),
                        const std::string& numerator = "Hayat",
                        const std::string& denominator = "VAA") const;
};

/// Execution settings; zero values defer to the environment knobs above
/// (the cache bounds have none).
struct EngineConfig {
  int workers = 0;           ///< <= 0: HAYAT_WORKERS or hardware
  bool cache = true;         ///< overridden off by HAYAT_NO_CACHE
  std::string cacheDir;      ///< "": HAYAT_CACHE_DIR or "hayat_cache"
  /// Distributed dispatch spec ("proc:N", "exec:N", "tcp:host:port",
  /// comma-separated).  "": HAYAT_DISPATCH, and failing that in-process
  /// threads.  Fixed-mix specs always run in-process (they have no
  /// canonical wire serialization).
  std::string dispatch;
  /// Cache size bound: after each store, oldest entries are evicted
  /// until the directory fits.  0: unbounded.
  std::uint64_t cacheMaxBytes = 0;
  /// Cache age bound [seconds]; entries older than this are evicted
  /// after each store.  0 evicts everything (the `--cache-max-age=0`
  /// flush idiom); negative: unbounded.
  double cacheMaxAgeSeconds = -1.0;
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineConfig config = {});

  /// Deterministic task expansion, ordered chip-major:
  /// chips x darkFractions x policies x repetitions.
  static std::vector<RunTask> expand(const ExperimentSpec& spec);

  /// Runs (or loads from cache) the whole spec.
  SweepTable run(const ExperimentSpec& spec) const;

  /// Executes one expanded task (builds the System, instantiates the
  /// policy from the registry, runs the lifetime loop): runTasks with
  /// this one task.
  static RunResult runTask(const RunTask& task, std::uint64_t populationSeed);

  /// Executes `tasks` on `workers` threads (<= 1: the calling thread),
  /// one System and policy per task.  The tasks are cut into groups of
  /// `width` consecutive tasks; a thread takes one group at a time and
  /// advances its LifetimeRuns in lockstep, so their windows share each
  /// thermal sweep (advanceInLockstep).  Results are in task order, each
  /// bitwise its runTask result.
  static std::vector<RunResult> runTasks(std::span<const RunTask> tasks,
                                         std::uint64_t populationSeed,
                                         int workers, int width);

  /// Lockstep width for `tasks` in-process tasks on `workers` threads:
  /// the largest of 4, 2 and 1 with tasks >= width * workers, so there
  /// is at least one full group per thread.
  static int laneWidth(int tasks, int workers);

  /// Escape hatch for bespoke policy objects (e.g. a fixed-DCM policy a
  /// bench constructs itself): the engine's single-run path without the
  /// registry.  Use the spec path whenever the policy has a name.
  static RunResult runWithPolicy(System& system, const LifetimeConfig& config,
                                 MappingPolicy& policy, int chip = 0,
                                 int repetition = 0);

  const EngineConfig& config() const { return config_; }

  /// Effective settings after applying the environment.
  int workers() const;
  bool cacheEnabled() const;
  std::string cacheDir() const;
  std::string dispatchSpec() const;

 private:
  EngineConfig config_;
};

}  // namespace hayat::engine
