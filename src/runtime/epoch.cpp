#include "runtime/epoch.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "common/alloc_counter.hpp"
#include "common/error.hpp"
#include "power/thermal_coupling.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat {

namespace {
std::atomic<long> runCount{0};
std::atomic<std::uint64_t> stepLoopAllocs{0};

/// One core's phase memo: the phase its thread (identified by profile)
/// runs, and the last step through which it provably keeps running it
/// (DESIGN.md §3.13).
struct PhaseRun {
  const ThreadProfile* profile = nullptr;
  const ThreadPhase* phase = nullptr;
  int through = -1;
};

/// The phase `profile` runs at step s of a window of `steps` steps of
/// length `step` — the bytes of profile.phaseAt(s * step) — looked up
/// only when `run` does not already cover step s for this profile.  A
/// lookup also brackets how long its phase lasts: step k runs the same
/// phase when it lies less than one period after step s, its period
/// offset has not fallen (no wrap in between), and its phase matches;
/// offsets rise with time between wraps and phases never go back as the
/// offset rises, so every step in between matches too.  Exponential then
/// binary search over that prefix-true test costs O(log run length)
/// lookups per phase run instead of one per step.
const ThreadPhase& phaseAtStep(PhaseRun& run, const ThreadProfile& profile,
                               int s, int steps, Seconds step) {
  if (run.profile == &profile && s <= run.through) return *run.phase;
  const Seconds t0 = s * step;
  const Seconds w0 = profile.periodOffset(t0);
  const ThreadPhase* phase = &profile.phaseAtOffset(w0);
  auto same = [&](int k) {
    const Seconds t = k * step;
    if (t - t0 >= profile.period()) return false;
    const Seconds w = profile.periodOffset(t);
    return w >= w0 && &profile.phaseAtOffset(w) == phase;
  };
  int lo = s;      // known to run `phase`
  int hi = steps;  // first step not known to
  for (int stride = 1; lo + stride < steps; stride *= 2) {
    if (!same(lo + stride)) {
      hi = lo + stride;
      break;
    }
    lo += stride;
  }
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (same(mid))
      lo = mid;
    else
      hi = mid;
  }
  run = {&profile, phase, lo};
  return *phase;
}
}  // namespace

long epochSimulatorRunCount() { return runCount.load(); }

std::uint64_t epochStepLoopAllocs() { return stepLoopAllocs.load(); }

std::uint64_t epochStepsSkipped() { return 0; }

std::uint64_t transientMemoHits() { return 0; }

std::uint64_t transientMemoMisses() {
  return static_cast<std::uint64_t>(epochSimulatorRunCount());
}

EpochSimulator::EpochSimulator(const Chip& chip, const ThermalModel& thermal,
                               const LeakageModel& leakage, EpochConfig config)
    : chip_(&chip),
      thermal_(&thermal),
      leakage_(&leakage),
      config_(config),
      solver_(thermal, config.step) {
  HAYAT_REQUIRE(config.window > 0.0, "window must be positive");
  HAYAT_REQUIRE(config.step > 0.0 && config.step <= config.window,
                "step must be positive and within the window");
  HAYAT_REQUIRE(thermal.coreCount() == chip.coreCount(),
                "thermal model size must match the chip");
}

EpochResult EpochSimulator::run(const Mapping& initialMapping,
                                const WorkloadMix& mix) const {
  runCount.fetch_add(1, std::memory_order_relaxed);
  static std::atomic<std::uint64_t> windowSpanSite{0};
  const telemetry::Span windowSpan("epoch.window",
                                   telemetry::sampleSpanSite(windowSpanSite));
  const std::uint64_t windowT0 =
      telemetry::enabled() ? telemetry::nowNanos() : 0;
  const int n = chip_->coreCount();
  HAYAT_REQUIRE(initialMapping.coreCount() == n, "mapping size mismatch");

  const int steps = std::max(1, static_cast<int>(
                                    std::llround(config_.window / config_.step)));

  Mapping mapping = initialMapping;
  DtmManager dtm(config_.dtm);
  const ThermalSensor thermalSensor(config_.thermalSensorNoise);
  const bool noisySensors =
      config_.thermalSensorNoise.gaussianSigma > 0.0 ||
      config_.thermalSensorNoise.quantization > 0.0;
  Rng sensorRng(config_.thermalSensorSeed);

  // Warm start: the chip has been executing this workload, so begin from
  // the coupled steady state of the mapping's average power.  The
  // coupled solver hands out the node temperatures of its final solve,
  // so no second full-network solve is needed.
  Vector nodeTemps;
  {
    std::vector<bool> on(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      on[static_cast<std::size_t>(i)] = mapping.coreBusy(i);
    CoupledOperatingPoint op = solveCoupledSteadyState(
        *thermal_, *leakage_,
        mapping.averageDynamicPower(mix, config_.nominalFrequency), on);
    nodeTemps = std::move(op.nodeTemperatures);
  }

  EpochResult result{Vector(static_cast<std::size_t>(n), 0.0),
                     Vector(static_cast<std::size_t>(n), 0.0),
                     std::vector<double>(static_cast<std::size_t>(n), 0.0),
                     0.0,
                     0.0,
                     {},
                     0,
                     0,
                     0.0,
                     0.0,
                     mapping};

  double tempTimeAccum = 0.0;

  // Pre-warm every buffer the step loop touches so the loop itself is
  // allocation-free in steady state (the DESIGN.md §3.8 contract; the
  // delta is tracked in epochStepLoopAllocs / hayat_epoch_step_allocs).
  Vector corePower(static_cast<std::size_t>(n));
  Vector coreTemps;
  Vector readings;
  Vector stepScratch;
  std::vector<PhaseRun> phaseRuns(static_cast<std::size_t>(n));
  thermal_->coreTemperaturesInto(nodeTemps, coreTemps);
  if (noisySensors) readings.resize(static_cast<std::size_t>(n));
  stepScratch.resize(static_cast<std::size_t>(thermal_->nodeCount()));
  const std::uint64_t allocsBefore = heapAllocationCount();

  const Hertz nominal = config_.nominalFrequency;
  // The phase the thread on core i runs at step s.  The memo is keyed
  // by the thread, so a thread the DTM migrated looks its phase up again
  // on its new core.
  auto phaseOn = [&](int i, const MappedThread& slot, int s) {
    const Application& app =
        mix.applications[static_cast<std::size_t>(slot.ref.app)];
    return &phaseAtStep(phaseRuns[static_cast<std::size_t>(i)],
                        app.thread(slot.ref.thread), s, steps,
                        config_.step);
  };

  for (int s = 0; s < steps; ++s) {
    // Per-core power for this step in one pass: phased dynamic power
    // plus leakage at the present temperatures (the 6.6 ms leakage
    // update of Section V).
    HAYAT_REQUIRE(nominal > 0.0, "nominal frequency must be positive");
    for (int i = 0; i < n; ++i) {
      const auto si = static_cast<std::size_t>(i);
      const auto& slot = mapping.onCore(i);
      double dynamic = 0.0;
      double leak = 0.0;
      if (slot.has_value()) {
        dynamic = phaseOn(i, *slot, s)->dynamicPower *
                  (slot->frequency / nominal);
        leak = leakage_->coreLeakageOn(i, coreTemps[si]);
      } else {
        leak = leakage_->coreLeakageGated();
      }
      corePower[si] = dynamic + leak;
    }

    solver_.stepInPlace(nodeTemps, corePower, stepScratch);
    thermal_->coreTemperaturesInto(nodeTemps, coreTemps);

    // DTM check at the sensor temperatures (noisy if configured; the
    // accounting below always records the true temperatures).
    if (noisySensors) {
      for (int i = 0; i < n; ++i)
        readings[static_cast<std::size_t>(i)] = thermalSensor.read(
            coreTemps[static_cast<std::size_t>(i)], sensorRng);
      dtm.enforce(mapping, readings, chip_->health());
    } else {
      dtm.enforce(mapping, coreTemps, chip_->health());
    }

    // Accounting.
    bool throttled = false;
    for (int i = 0; i < n; ++i) {
      const auto si = static_cast<std::size_t>(i);
      result.averageTemperature[si] += coreTemps[si];
      result.peakTemperature[si] =
          std::max(result.peakTemperature[si], coreTemps[si]);
      result.chipPeak = std::max(result.chipPeak, coreTemps[si]);
      tempTimeAccum += coreTemps[si];
      const auto& slot = mapping.onCore(i);
      if (slot.has_value()) {
        const ThreadPhase& phase = *phaseOn(i, *slot, s);
        result.duty[si] += phase.dutyCycle;
        result.achievedIps += phase.ipc * slot->frequency;
        result.requiredIps += phase.ipc * slot->requiredFrequency;
        if (slot->frequency < slot->requiredFrequency) throttled = true;
      }
    }
    if (throttled) ++result.throttledSteps;
  }

  const std::uint64_t loopAllocs = heapAllocationCount() - allocsBefore;
  stepLoopAllocs.fetch_add(loopAllocs, std::memory_order_relaxed);

  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    result.averageTemperature[si] /= steps;
    result.duty[si] /= steps;
  }
  result.chipTimeAverage = tempTimeAccum / (static_cast<double>(steps) * n);
  result.achievedIps /= steps;
  result.requiredIps /= steps;
  result.dtm = dtm.stats();
  result.totalSteps = steps;
  result.finalMapping = mapping;

  if (telemetry::enabled()) {
    static telemetry::Counter& windows =
        telemetry::Registry::global().counter("hayat_epoch_windows_total");
    static telemetry::Counter& stepAllocs =
        telemetry::Registry::global().counter("hayat_epoch_step_allocs");
    static telemetry::Histogram& duration =
        telemetry::Registry::global().histogram(
            "hayat_epoch_window_seconds",
            {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0});
    windows.add();
    if (loopAllocs > 0) stepAllocs.add(loopAllocs);
    if (windowT0 != 0)
      duration.observe(static_cast<double>(telemetry::nowNanos() - windowT0) *
                       1e-9);
  }
  return result;
}

}  // namespace hayat
