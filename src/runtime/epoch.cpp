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

telemetry::Counter& windowsTotal =
    telemetry::Registry::global().counter("hayat_epoch_windows_total");
telemetry::Counter& laneWindowsTotal =
    telemetry::Registry::global().counter("hayat_epoch_lane_windows_total");
telemetry::Counter& stepAllocsTotal =
    telemetry::Registry::global().counter("hayat_epoch_step_allocs");
telemetry::Histogram& windowSeconds = telemetry::Registry::global().histogram(
    "hayat_epoch_window_seconds",
    {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0});

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

/// A window's zeroed accumulators for `mapping`'s cores.
EpochResult emptyResult(const Mapping& mapping) {
  const auto n = static_cast<std::size_t>(mapping.coreCount());
  return {Vector(n, 0.0),
          Vector(n, 0.0),
          std::vector<double>(n, 0.0),
          0.0,
          0.0,
          {},
          0,
          0,
          0.0,
          0.0,
          mapping};
}

/// One lane's window state: mapping, DTM, sensors, temperatures, power,
/// phase memo and accumulators.  Construction warm-starts the lane and
/// sizes every buffer the step loop touches, so the loop allocates
/// nothing.
class LaneWindow {
 public:
  LaneWindow(const EpochLane& lane, int steps)
      : sim_(*lane.simulator),
        mix_(*lane.mix),
        steps_(steps),
        mapping_(*lane.mapping),
        dtm_(sim_.config().dtm),
        sensor_(sim_.config().thermalSensorNoise),
        noisySensors_(sim_.config().thermalSensorNoise.gaussianSigma > 0.0 ||
                      sim_.config().thermalSensorNoise.quantization > 0.0),
        sensorRng_(sim_.config().thermalSensorSeed),
        result_(emptyResult(*lane.mapping)) {
    const int n = sim_.chip().coreCount();
    HAYAT_REQUIRE(mapping_.coreCount() == n, "mapping size mismatch");
    const auto un = static_cast<std::size_t>(n);
    // Warm start: the chip has been executing this workload, so begin
    // from the coupled steady state of the mapping's average power.
    // The coupled solver hands out the node temperatures of its final
    // solve, so no second full-network solve is needed.
    {
      std::vector<bool> on(un);
      for (int i = 0; i < n; ++i)
        on[static_cast<std::size_t>(i)] = mapping_.coreBusy(i);
      CoupledOperatingPoint op = solveCoupledSteadyState(
          sim_.thermal(), sim_.leakage(),
          mapping_.averageDynamicPower(mix_, sim_.config().nominalFrequency),
          on);
      nodeTemps_ = std::move(op.nodeTemperatures);
    }
    corePower_.resize(un);
    phaseRuns_.resize(un);
    sim_.thermal().coreTemperaturesInto(nodeTemps_, coreTemps_);
    if (noisySensors_) readings_.resize(un);
    dtm_.reserve(n, mix_);
  }

  Vector* nodeTemperatures() { return &nodeTemps_; }
  const Vector* corePower() const { return &corePower_; }

  /// Per-core power for step s in one pass: phased dynamic power plus
  /// leakage at the present temperatures (the 6.6 ms leakage update of
  /// Section V).
  void computePower(int s) {
    const Hertz nominal = sim_.config().nominalFrequency;
    HAYAT_REQUIRE(nominal > 0.0, "nominal frequency must be positive");
    const LeakageModel& leakage = sim_.leakage();
    const int n = mapping_.coreCount();
    for (int i = 0; i < n; ++i) {
      const auto si = static_cast<std::size_t>(i);
      const auto& slot = mapping_.onCore(i);
      double dynamic = 0.0;
      double leak = 0.0;
      if (slot.has_value()) {
        dynamic = phaseOn(i, *slot, s).dynamicPower *
                  (slot->frequency / nominal);
        leak = leakage.coreLeakageOn(i, coreTemps_[si]);
      } else {
        leak = leakage.coreLeakageGated();
      }
      corePower_[si] = dynamic + leak;
    }
  }

  /// After the thermal step: the DTM check at the sensor temperatures
  /// (noisy if configured; the accounting always records the true
  /// temperatures), then the step's accounting.
  void afterStep(int s) {
    sim_.thermal().coreTemperaturesInto(nodeTemps_, coreTemps_);
    const int n = mapping_.coreCount();
    if (noisySensors_) {
      for (int i = 0; i < n; ++i)
        readings_[static_cast<std::size_t>(i)] = sensor_.read(
            coreTemps_[static_cast<std::size_t>(i)], sensorRng_);
      dtm_.enforce(mapping_, readings_, sim_.chip().health());
    } else {
      dtm_.enforce(mapping_, coreTemps_, sim_.chip().health());
    }

    bool throttled = false;
    for (int i = 0; i < n; ++i) {
      const auto si = static_cast<std::size_t>(i);
      result_.averageTemperature[si] += coreTemps_[si];
      result_.peakTemperature[si] =
          std::max(result_.peakTemperature[si], coreTemps_[si]);
      result_.chipPeak = std::max(result_.chipPeak, coreTemps_[si]);
      tempTimeAccum_ += coreTemps_[si];
      const auto& slot = mapping_.onCore(i);
      if (slot.has_value()) {
        const ThreadPhase& phase = phaseOn(i, *slot, s);
        result_.duty[si] += phase.dutyCycle;
        result_.achievedIps += phase.ipc * slot->frequency;
        result_.requiredIps += phase.ipc * slot->requiredFrequency;
        if (slot->frequency < slot->requiredFrequency) throttled = true;
      }
    }
    if (throttled) ++result_.throttledSteps;
  }

  /// The window's summary, time averages taken.
  EpochResult finish() {
    const int n = mapping_.coreCount();
    for (int i = 0; i < n; ++i) {
      const auto si = static_cast<std::size_t>(i);
      result_.averageTemperature[si] /= steps_;
      result_.duty[si] /= steps_;
    }
    result_.chipTimeAverage =
        tempTimeAccum_ / (static_cast<double>(steps_) * n);
    result_.achievedIps /= steps_;
    result_.requiredIps /= steps_;
    result_.dtm = dtm_.stats();
    result_.totalSteps = steps_;
    result_.finalMapping = mapping_;
    return std::move(result_);
  }

 private:
  /// The phase the thread on core i runs at step s.  The memo is keyed
  /// by the thread, so a thread the DTM migrated looks its phase up
  /// again on its new core.
  const ThreadPhase& phaseOn(int i, const MappedThread& slot, int s) {
    const Application& app =
        mix_.applications[static_cast<std::size_t>(slot.ref.app)];
    return phaseAtStep(phaseRuns_[static_cast<std::size_t>(i)],
                       app.thread(slot.ref.thread), s, steps_,
                       sim_.config().step);
  }

  const EpochSimulator& sim_;
  const WorkloadMix& mix_;
  int steps_;
  Mapping mapping_;
  DtmManager dtm_;
  ThermalSensor sensor_;
  bool noisySensors_;
  Rng sensorRng_;
  Vector nodeTemps_;
  Vector coreTemps_;
  Vector corePower_;
  Vector readings_;
  std::vector<PhaseRun> phaseRuns_;
  EpochResult result_;
  double tempTimeAccum_ = 0.0;
};
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

int EpochSimulator::stepCount() const {
  return std::max(
      1, static_cast<int>(std::llround(config_.window / config_.step)));
}

bool EpochSimulator::canShareLanes(const EpochSimulator& a,
                                   const EpochSimulator& b) {
  return &a.solver_.transientOperator() == &b.solver_.transientOperator() &&
         a.stepCount() == b.stepCount();
}

EpochResult EpochSimulator::run(const Mapping& initialMapping,
                                const WorkloadMix& mix) const {
  const EpochLane lane{this, &initialMapping, &mix};
  return std::move(runLanes({&lane, 1}).front());
}

std::vector<EpochResult> EpochSimulator::runLanes(
    std::span<const EpochLane> lanes) {
  HAYAT_REQUIRE(!lanes.empty(), "a window needs at least one lane");
  const EpochSimulator& first = *lanes.front().simulator;
  for (const EpochLane& lane : lanes)
    HAYAT_REQUIRE(canShareLanes(first, *lane.simulator),
                  "lockstep lanes must share one transient operator and "
                  "step count");
  const auto width = static_cast<long>(lanes.size());
  runCount.fetch_add(width, std::memory_order_relaxed);
  static std::atomic<std::uint64_t> windowSpanSite{0};
  const telemetry::Span windowSpan("epoch.window",
                                   telemetry::sampleSpanSite(windowSpanSite));
  const std::uint64_t windowT0 =
      telemetry::enabled() ? telemetry::nowNanos() : 0;
  const int steps = first.stepCount();

  std::vector<LaneWindow> windows;
  windows.reserve(lanes.size());
  std::vector<Vector*> temps;
  std::vector<const Vector*> powers;
  for (const EpochLane& lane : lanes) {
    LaneWindow& w = windows.emplace_back(lane, steps);
    temps.push_back(w.nodeTemperatures());
    powers.push_back(w.corePower());
  }
  // stepLanes' interleaved domain: nodeCount() doubles per lane, four
  // lanes at most (the delta is tracked in epochStepLoopAllocs /
  // hayat_epoch_step_allocs).
  Vector stepScratch(static_cast<std::size_t>(first.thermal_->nodeCount()) *
                     std::min<std::size_t>(lanes.size(), 4));
  const std::uint64_t allocsBefore = heapAllocationCount();

  for (int s = 0; s < steps; ++s) {
    for (LaneWindow& w : windows) w.computePower(s);
    first.solver_.stepLanes(temps, powers, stepScratch);
    for (LaneWindow& w : windows) w.afterStep(s);
  }

  const std::uint64_t loopAllocs = heapAllocationCount() - allocsBefore;
  stepLoopAllocs.fetch_add(loopAllocs, std::memory_order_relaxed);

  std::vector<EpochResult> results;
  results.reserve(lanes.size());
  for (LaneWindow& w : windows) results.push_back(w.finish());

  if (telemetry::enabled()) {
    windowsTotal.add(lanes.size());
    if (lanes.size() > 1) laneWindowsTotal.add(lanes.size());
    if (loopAllocs > 0) stepAllocsTotal.add(loopAllocs);
    // Each lane window is charged its share of the lockstep wall time.
    if (windowT0 != 0) {
      const double share =
          static_cast<double>(telemetry::nowNanos() - windowT0) * 1e-9 /
          static_cast<double>(width);
      for (std::size_t k = 0; k < lanes.size(); ++k)
        windowSeconds.observe(share);
    }
  }
  return results;
}

}  // namespace hayat
