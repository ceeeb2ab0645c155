// Aging-epoch simulation (Section IV, Fig. 4).
//
// "We define coarse-grained aging epochs that determine the granularity
// of our health monitoring and aging evaluation. Further, we use
// fine-grained transient simulations during each epoch. ... After an
// epoch is finished ... the data from the fine-grained simulation is
// upscaled to the time range of the epoch."
//
// EpochSimulator is the ground-truth engine: it runs the fine-grained
// transient window for a given mapping — phased thread powers,
// temperature-dependent leakage updated every 6.6 ms (Section V), DTM
// checks at the same period — and reports the per-core worst-case
// temperature and duty cycle that the caller upscales into the epoch's
// aging step.  Policies never see this engine's internals, only the
// sensor-style summary in EpochResult.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/chip.hpp"
#include "arch/sensors.hpp"
#include "power/leakage.hpp"
#include "runtime/dtm.hpp"
#include "runtime/mapping.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/transient.hpp"
#include "workload/application.hpp"

namespace hayat {

/// Fine-grained window parameters.
struct EpochConfig {
  Seconds window = 2.0;       ///< simulated transient window length
  Seconds step = 6.6e-3;      ///< leakage/DTM update period (Section V)
  Hertz nominalFrequency = 3.0e9;  ///< trace reference frequency
  DtmConfig dtm;
  /// Measurement error of the thermal sensors T_i the DTM reacts to
  /// (Section III assumes at least one per core).  Default: ideal.
  SensorNoise thermalSensorNoise{};
  std::uint64_t thermalSensorSeed = 515;
};

/// Summary of one fine-grained window, upscaled by the caller to the
/// epoch duration.
struct EpochResult {
  Vector averageTemperature;  ///< per core, time-weighted [K]
  Vector peakTemperature;     ///< per core, worst case over the window [K]
  std::vector<double> duty;   ///< per-core PMOS stress duty over the window
  Kelvin chipPeak = 0.0;      ///< max temperature over cores and time
  Kelvin chipTimeAverage = 0.0;  ///< mean over cores and time
  DtmStats dtm;               ///< DTM activity within the window
  /// Steps during which at least one thread ran below its required
  /// frequency (throttled) — the throughput-violation exposure.
  int throttledSteps = 0;
  int totalSteps = 0;
  /// Aggregate achieved instruction throughput over the window
  /// [instructions/s summed over threads], and the throughput the
  /// threads' requirements call for.  achieved/required < 1 quantifies
  /// the performance overhead of DTM throttling ("This also indicates
  /// towards reduced performance overhead", Section VI).
  double achievedIps = 0.0;
  double requiredIps = 0.0;

  /// achieved/required throughput, in (0, 1].
  double throughputRatio() const {
    return requiredIps > 0.0 ? achievedIps / requiredIps : 1.0;
  }
  Mapping finalMapping;       ///< post-DTM assignment at window end
};

/// Process-wide count of simulated windows, one per lane of every
/// EpochSimulator::runLanes call (so one per EpochSimulator::run).  The
/// engine's result cache is specified as "a cache hit performs zero
/// EpochSimulator calls"; this counter is how tests (and the engine's own
/// stats) verify that without instrumenting call sites.  Monotonic,
/// thread-safe.
long epochSimulatorRunCount();

/// Process-wide count of heap allocations observed inside epoch step
/// loops (after buffer warm-up).  The hot loop is contractually
/// allocation-free in steady state — a steady window adds exactly zero
/// here; DTM actions (migration bookkeeping) are the only expected
/// contributors.  Always zero when allocCounterActive() is false
/// (sanitizer builds).  Monotonic, thread-safe.
std::uint64_t epochStepLoopAllocs();

/// Compatibility shims for callers of the removed trajectory memo and
/// fixed-point early exit (DESIGN.md §3.13).  Every window now runs the
/// full step loop: no steps are skipped and no window is replayed.
std::uint64_t epochStepsSkipped();  ///< always 0
std::uint64_t transientMemoHits();  ///< always 0
/// Every window is simulated: equals epochSimulatorRunCount().
std::uint64_t transientMemoMisses();

class EpochSimulator;

/// One lane of a lockstep window: the simulator whose chip and config
/// it runs on, and the mapping and mix it starts from.
struct EpochLane {
  const EpochSimulator* simulator = nullptr;
  const Mapping* mapping = nullptr;
  const WorkloadMix* mix = nullptr;
};

/// Ground-truth fine-grained simulator.
class EpochSimulator {
 public:
  /// All referenced objects must outlive the simulator.
  EpochSimulator(const Chip& chip, const ThermalModel& thermal,
                 const LeakageModel& leakage, EpochConfig config = {});

  /// Runs one fine-grained window starting from the mapping a policy
  /// chose.  The window starts from the coupled steady state of the
  /// mapping's average power (the chip has been running this workload).
  /// runLanes with this one lane.
  EpochResult run(const Mapping& initialMapping, const WorkloadMix& mix) const;

  /// Runs one window per lane in lockstep on the calling thread: each
  /// step computes every lane's power, advances all lanes through one
  /// TransientSolver::stepLanes call (one interleaved banded sweep), then
  /// runs every lane's DTM check and accounting.  Lanes keep their own
  /// mapping, DTM, sensors, temperatures and accumulators, so result k is
  /// bitwise what lanes[k].simulator->run() returns.  All lanes must hold
  /// the same transient operator and step count.  The step loop is
  /// allocation-free.
  static std::vector<EpochResult> runLanes(std::span<const EpochLane> lanes);

  /// True when `a` and `b` can share a runLanes call.
  static bool canShareLanes(const EpochSimulator& a, const EpochSimulator& b);

  const EpochConfig& config() const { return config_; }
  const Chip& chip() const { return *chip_; }
  const ThermalModel& thermal() const { return *thermal_; }
  const LeakageModel& leakage() const { return *leakage_; }
  /// Steps per window: window / step, rounded, at least 1.
  int stepCount() const;

 private:
  const Chip* chip_;
  const ThermalModel* thermal_;
  const LeakageModel* leakage_;
  EpochConfig config_;
  TransientSolver solver_;
};

}  // namespace hayat
