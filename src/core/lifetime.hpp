// Multi-year accelerated-aging lifetime simulation (Fig. 4, Section VI).
//
// Drives the epoch loop the paper evaluates with: each aging epoch, the
// policy under test produces a mapping from the chip's *current* health
// map, the fine-grained EpochSimulator measures the window (temperatures,
// duty cycles, DTM events), and the measured worst-case conditions are
// upscaled to the epoch length to advance every core's NBTI state.  The
// workload sequence is derived from a seed, so comparison partners see
// identical mixes on identical silicon.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "aging/mttf.hpp"
#include "arch/sensors.hpp"
#include "core/system.hpp"
#include "failure/monte_carlo.hpp"
#include "runtime/mapping.hpp"
#include "workload/generator.hpp"

namespace hayat {

/// Lifetime experiment parameters.
struct LifetimeConfig {
  Years horizon = 10.0;          ///< simulated lifetime
  Years epochLength = 0.25;      ///< aging epoch (3 months, Section VI)
  double minDarkFraction = 0.5;  ///< dark-silicon constraint
  Kelvin tsafe = 368.15;
  Hertz nominalFrequency = 3.0e9;
  std::uint64_t workloadSeed = 99;
  /// "the next epoch starts considering the same set of workloads (or
  /// potentially a different one, given multiple sets of workloads)" —
  /// true draws a fresh mix per epoch from the seed stream.
  bool freshMixEachEpoch = true;
  /// Fraction of applications that finish (and are replaced by arrivals)
  /// each epoch.  0 keeps the paper's whole-mix-per-epoch behaviour;
  /// > 0 evolves the mix gradually, the regime where decisions happen
  /// "in intervals of several minutes after the previous decision"
  /// (Section VI).
  double mixChurn = 0.0;
  /// With churn: keep surviving applications pinned where the previous
  /// epoch (including its DTM) left them and place only the arrivals via
  /// MappingPolicy::placeApplication, instead of remapping everything.
  bool incrementalRemap = false;
  /// Optional discrete DVFS ladder the policies must respect (null =
  /// continuous frequency scaling, the paper's assumption).
  std::optional<FrequencyLadder> dvfs;
  /// When set, every epoch runs this exact workload (e.g. an imported
  /// Gem5/McPAT trace, workload/trace_io.hpp) instead of drawing
  /// synthetic mixes from the seed stream.
  std::optional<WorkloadMix> fixedMix;
  /// Measurement error of the aging sensors D_i the policies decide
  /// from: each epoch, the policy sees delay factors read through a
  /// sensor with this noise instead of the true health map.  Default:
  /// ideal sensors.
  SensorNoise healthSensorNoise{};
  std::uint64_t sensorSeed = 4242;
  /// Distribution mode (DESIGN.md §3.14): failure.samples > 0 makes the
  /// run additionally collect per-unit (temperature, stress)
  /// trajectories and Monte Carlo a system-lifetime distribution over
  /// the SoC failure graph; 0 keeps the classic point-MTTF-only run.
  FailureConfig failure{};
};

/// Metrics captured per epoch.
struct EpochRecord {
  Years startYear = 0.0;
  long dtmEvents = 0;           ///< migrations + throttles in the window
  long migrations = 0;
  long throttles = 0;
  Kelvin chipPeak = 0.0;        ///< max T over cores and window time
  Kelvin chipTimeAverage = 0.0; ///< mean T over cores and window time
  int throttledSteps = 0;
  int totalSteps = 0;
  Hertz chipFmax = 0.0;         ///< after this epoch's aging
  Hertz averageFmax = 0.0;      ///< after this epoch's aging
  double minHealth = 1.0;
  double averageHealth = 1.0;
  /// Achieved/required instruction throughput in the window (<= 1; DTM
  /// throttling and unreachable f_min requirements lower it).
  double throughputRatio = 1.0;
};

/// Full lifetime trace of one (chip, policy) run.
struct LifetimeResult {
  std::vector<EpochRecord> epochs;
  std::vector<Hertz> initialFmax;  ///< per core, year 0
  std::vector<Hertz> finalFmax;    ///< per core, horizon end
  Years horizon = 0.0;             ///< simulated span (epochs * length)
  /// Miner's-rule consumed-life fraction per core (Arrhenius wear-out,
  /// accumulated from each epoch's time-average temperatures).
  std::vector<double> coreDamage;
  /// Sampled system-lifetime distribution, present iff the run's
  /// LifetimeConfig::failure.samples > 0.
  std::optional<LifetimeDistribution> distribution;

  /// Chip-level hard-failure summary (series system over cores).
  ChipReliability reliability() const;

  long totalDtmEvents() const;
  long totalMigrations() const;

  /// Time-average of (chipTimeAverage - ambient) across epochs — the
  /// Fig. 8 metric.
  double averageTemperatureOverAmbient(Kelvin ambient) const;

  /// Chip fmax / average fmax at a given year (stepwise over epochs;
  /// year 0 returns the un-aged values).
  Hertz chipFmaxAt(Years year) const;
  Hertz averageFmaxAt(Years year) const;

  /// Aging rate of a frequency metric over the horizon [Hz/year]:
  /// (metric(0) - metric(end)) / horizon.
  double chipFmaxAgingRate() const;
  double averageFmaxAgingRate() const;

  /// First year at which the average fmax drops below `threshold`
  /// (linear interpolation between epochs; returns the horizon if it
  /// never does) — the lifetime metric of Fig. 11's discussion.
  Years yearsUntilAverageFmaxBelow(Hertz threshold) const;
};

/// Cumulative wall-clock nanoseconds spent in each phase of every
/// lifetime run in this process.  The aging/policy/thermal split is what
/// bench_kernels' lifetime-breakdown section reports (and what the CI
/// perf-smoke gate budgets); `other` time is total minus the three
/// instrumented phases.  `total` is the time spent inside LifetimeRun
/// calls plus every window; a lockstep window is charged once, however
/// many runs it advances.
struct LifetimePhaseNanos {
  std::uint64_t aging = 0;    ///< batched health-map advance
  std::uint64_t policy = 0;   ///< policy.map / placeApplication calls
  std::uint64_t thermal = 0;  ///< EpochSimulator windows
  std::uint64_t total = 0;    ///< all of a run's work
};

/// Snapshot / reset of the process-wide phase accumulators.
LifetimePhaseNanos lifetimePhaseNanos();
void resetLifetimePhaseNanos();

/// One lifetime run of `policy` on `system`, advanced an epoch at a
/// time.  Split at the window so that several runs can step their
/// windows in lockstep (advanceInLockstep), and so that a run can move
/// between threads at an epoch boundary.
class LifetimeRun {
 public:
  /// Starts from the system's current health state.  `system` and
  /// `policy` must outlive the run.
  LifetimeRun(const LifetimeConfig& config, System& system,
              MappingPolicy& policy);
  LifetimeRun(const LifetimeRun&) = delete;
  LifetimeRun& operator=(const LifetimeRun&) = delete;

  bool done() const { return epoch_ >= epochCount_; }

  /// The next epoch's mix evolution, sensor view of the health map and
  /// policy decision.  Returns the window to simulate: this run's
  /// simulator with the epoch's mapping and mix (valid until endEpoch).
  EpochLane beginEpoch();

  /// Folds the simulated window into the run: aging advance, wear-out
  /// damage, failure trajectories and the epoch's EpochRecord.
  void endEpoch(const EpochResult& window);

  /// The run's result, the failure Monte Carlo included.  Call once,
  /// after done().
  LifetimeResult finish();

 private:
  /// Start of construction: the whole constructor, the simulator's
  /// transient-operator fetch included, is charged to `total`.
  std::uint64_t startNanos_;
  LifetimeConfig config_;
  Chip& chip_;
  const ThermalModel& thermal_;
  const LeakageModel& leakage_;
  MappingPolicy& policy_;
  EpochSimulator epochSim_;
  int budget_ = 0;
  int epochCount_ = 0;
  int epoch_ = 0;
  bool inEpoch_ = false;
  LifetimeResult result_;
  std::vector<DamageAccumulator> damage_;
  Rng workloadRng_;
  Rng sensorRng_;
  WorkloadMix mix_;
  Mapping mapping_;  ///< the current epoch's decision
  /// Carry-over state for churn/incremental mode.
  std::optional<Mapping> carriedMapping_;
  std::vector<std::pair<int, int>> pendingArrivals_;
  /// Distribution mode: one trajectory per failure-graph unit.
  std::vector<UnitTrajectory> trajectories_;
};

/// Advances every run that is not done by one epoch.  The runs whose
/// windows can share lanes (EpochSimulator::canShareLanes) step them
/// together through one EpochSimulator::runLanes call, so each run ends
/// bitwise where beginEpoch, its own window and endEpoch would have
/// taken it.  Runs may be at different epochs.  This is the only advance
/// path: LifetimeSimulator::run calls it with one run.
void advanceInLockstep(std::span<LifetimeRun* const> runs);

/// The epoch-loop driver.
class LifetimeSimulator {
 public:
  explicit LifetimeSimulator(LifetimeConfig config = {});

  /// Runs `policy` on `system` from the system's current health state to
  /// the horizon: a LifetimeRun advanced epoch by epoch.  Call
  /// system.resetHealth() between policies to compare them on identical
  /// silicon.
  LifetimeResult run(System& system, MappingPolicy& policy) const;

  const LifetimeConfig& config() const { return config_; }

 private:
  LifetimeConfig config_;
};

}  // namespace hayat
