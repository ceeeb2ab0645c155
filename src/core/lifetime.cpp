#include "core/lifetime.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat {

ChipReliability LifetimeResult::reliability() const {
  return summarizeReliability(coreDamage, horizon);
}

long LifetimeResult::totalDtmEvents() const {
  long acc = 0;
  for (const EpochRecord& e : epochs) acc += e.dtmEvents;
  return acc;
}

long LifetimeResult::totalMigrations() const {
  long acc = 0;
  for (const EpochRecord& e : epochs) acc += e.migrations;
  return acc;
}

double LifetimeResult::averageTemperatureOverAmbient(Kelvin ambient) const {
  HAYAT_REQUIRE(!epochs.empty(), "empty lifetime result");
  double acc = 0.0;
  for (const EpochRecord& e : epochs) acc += e.chipTimeAverage - ambient;
  return acc / static_cast<double>(epochs.size());
}

namespace {

// Process-wide phase accumulators behind lifetimePhaseNanos().  Always
// ticking (two steady-clock reads per phase per epoch — noise next to
// the work they bracket) so the bench breakdown works with telemetry
// off.
std::atomic<std::uint64_t> agingPhaseNanos{0};
std::atomic<std::uint64_t> policyPhaseNanos{0};
std::atomic<std::uint64_t> thermalPhaseNanos{0};
std::atomic<std::uint64_t> totalPhaseNanos{0};

/// Charges the enclosing scope's wall time to the `total` phase.
class TotalPhaseTimer {
 public:
  TotalPhaseTimer() : t0_(telemetry::nowNanos()) {}
  ~TotalPhaseTimer() {
    totalPhaseNanos.fetch_add(telemetry::nowNanos() - t0_,
                              std::memory_order_relaxed);
  }
  TotalPhaseTimer(const TotalPhaseTimer&) = delete;
  TotalPhaseTimer& operator=(const TotalPhaseTimer&) = delete;

 private:
  std::uint64_t t0_;
};

/// Runs `lanes` as one lockstep window, charged to `thermal` and `total`.
std::vector<EpochResult> timedWindows(std::span<const EpochLane> lanes) {
  const std::uint64_t t0 = telemetry::nowNanos();
  std::vector<EpochResult> windows = EpochSimulator::runLanes(lanes);
  const std::uint64_t elapsed = telemetry::nowNanos() - t0;
  thermalPhaseNanos.fetch_add(elapsed, std::memory_order_relaxed);
  totalPhaseNanos.fetch_add(elapsed, std::memory_order_relaxed);
  return windows;
}

/// One epoch's mix evolution under churn: surviving applications keep
/// their objects (and, in incremental mode, their placements); departures
/// free budget that fresh arrivals fill.
struct MixEvolution {
  WorkloadMix mix;
  std::vector<int> newIndexOfOld;             ///< -1 = departed
  std::vector<std::pair<int, int>> arrivals;  ///< (new index, parallelism)
};

MixEvolution evolveMix(const WorkloadMix& previous,
                       const Mapping& previousMapping, double churn,
                       int budget, Hertz nominalFrequency, Rng& rng) {
  MixEvolution out;
  out.newIndexOfOld.assign(previous.applications.size(), -1);

  // Count each old application's currently mapped threads.
  std::vector<int> mappedThreads(previous.applications.size(), 0);
  for (const MappedThread& t : previousMapping.threads())
    ++mappedThreads[static_cast<std::size_t>(t.ref.app)];

  int usedBudget = 0;
  for (std::size_t j = 0; j < previous.applications.size(); ++j) {
    if (rng.uniform() < churn) continue;  // finished
    out.newIndexOfOld[j] = static_cast<int>(out.mix.applications.size());
    out.mix.applications.push_back(previous.applications[j]);
    usedBudget += mappedThreads[j] > 0
                      ? mappedThreads[j]
                      : previous.applications[j].maxThreads();
  }

  // Fill the freed budget with arrivals (bounded rejected-draw loop, as
  // in ParsecLikeSuite::makeMix).
  const auto& specs = ParsecLikeSuite::specs();
  int rejected = 0;
  while (usedBudget < budget && rejected < 200) {
    const BenchmarkSpec& spec = specs[static_cast<std::size_t>(
        rng.uniformInt(static_cast<int>(specs.size())))];
    const int remaining = budget - usedBudget;
    if (spec.minParallelism > remaining) {
      ++rejected;
      continue;
    }
    const int maxK = std::min(spec.maxParallelism, remaining);
    const int k =
        spec.minParallelism + rng.uniformInt(maxK - spec.minParallelism + 1);
    const int newIdx = static_cast<int>(out.mix.applications.size());
    out.mix.applications.push_back(
        ParsecLikeSuite::instantiate(spec, rng, nominalFrequency, k));
    out.arrivals.emplace_back(newIdx, k);
    usedBudget += k;
  }
  HAYAT_REQUIRE(!out.mix.applications.empty(),
                "mix evolution produced an empty workload");
  return out;
}

Hertz metricAt(const LifetimeResult& r, Years year,
               Hertz initialValue, Hertz (*pick)(const EpochRecord&)) {
  if (year <= 0.0 || r.epochs.empty()) return initialValue;
  // Epochs are appended in start-year order, so the answer is the last
  // record strictly before `year` (an epoch starting exactly at `year`
  // has not aged the chip yet as of that instant).
  const auto it = std::lower_bound(
      r.epochs.begin(), r.epochs.end(), year,
      [](const EpochRecord& e, Years y) { return e.startYear < y; });
  if (it == r.epochs.begin()) return initialValue;
  return pick(*std::prev(it));
}

}  // namespace

LifetimePhaseNanos lifetimePhaseNanos() {
  LifetimePhaseNanos out;
  out.aging = agingPhaseNanos.load(std::memory_order_relaxed);
  out.policy = policyPhaseNanos.load(std::memory_order_relaxed);
  out.thermal = thermalPhaseNanos.load(std::memory_order_relaxed);
  out.total = totalPhaseNanos.load(std::memory_order_relaxed);
  return out;
}

void resetLifetimePhaseNanos() {
  agingPhaseNanos.store(0, std::memory_order_relaxed);
  policyPhaseNanos.store(0, std::memory_order_relaxed);
  thermalPhaseNanos.store(0, std::memory_order_relaxed);
  totalPhaseNanos.store(0, std::memory_order_relaxed);
}

Hertz LifetimeResult::chipFmaxAt(Years year) const {
  return metricAt(*this, year, maxOf(initialFmax),
                  [](const EpochRecord& e) { return e.chipFmax; });
}

Hertz LifetimeResult::averageFmaxAt(Years year) const {
  return metricAt(*this, year, mean(initialFmax),
                  [](const EpochRecord& e) { return e.averageFmax; });
}

double LifetimeResult::chipFmaxAgingRate() const {
  HAYAT_REQUIRE(!epochs.empty(), "empty lifetime result");
  return (maxOf(initialFmax) - epochs.back().chipFmax) /
         std::max(horizon, 1e-9);
}

double LifetimeResult::averageFmaxAgingRate() const {
  HAYAT_REQUIRE(!epochs.empty(), "empty lifetime result");
  return (mean(initialFmax) - epochs.back().averageFmax) /
         std::max(horizon, 1e-9);
}

Years LifetimeResult::yearsUntilAverageFmaxBelow(Hertz threshold) const {
  HAYAT_REQUIRE(!epochs.empty(), "empty lifetime result");
  Hertz prev = mean(initialFmax);
  Years prevYear = 0.0;
  // With a single epoch its startYear is 0.0, so the spacing must come
  // from the horizon — epochs[0].startYear would collapse the
  // interpolated crossing to year 0.
  const Years epochLen =
      epochs.size() > 1 ? epochs[1].startYear - epochs[0].startYear
                        : horizon / static_cast<double>(epochs.size());
  for (const EpochRecord& e : epochs) {
    const Years endYear = e.startYear + epochLen;
    if (e.averageFmax < threshold) {
      if (prev <= threshold) return prevYear;
      const double frac = (prev - threshold) / (prev - e.averageFmax);
      return prevYear + frac * (endYear - prevYear);
    }
    prev = e.averageFmax;
    prevYear = endYear;
  }
  return prevYear;  // never dropped below within the horizon
}

namespace {

telemetry::Counter& runsTotal =
    telemetry::Registry::global().counter("hayat_lifetime_runs_total");
telemetry::Counter& epochsTotal =
    telemetry::Registry::global().counter("hayat_lifetime_epochs_total");

void validate(const LifetimeConfig& config) {
  HAYAT_REQUIRE(config.mixChurn >= 0.0 && config.mixChurn <= 1.0,
                "mix churn must be in [0, 1]");
  HAYAT_REQUIRE(!config.incrementalRemap || config.mixChurn > 0.0,
                "incremental remap requires mix churn");
  HAYAT_REQUIRE(config.horizon > 0.0, "horizon must be positive");
  HAYAT_REQUIRE(config.epochLength > 0.0 &&
                    config.epochLength <= config.horizon,
                "epoch length must be positive and within the horizon");
  HAYAT_REQUIRE(config.minDarkFraction >= 0.0 && config.minDarkFraction < 1.0,
                "dark fraction must be in [0, 1)");
}

EpochConfig epochConfigFor(const System& system, const LifetimeConfig& c) {
  EpochConfig epochConfig = system.config().epoch;
  epochConfig.nominalFrequency = c.nominalFrequency;
  epochConfig.dtm.tsafe = c.tsafe;
  return epochConfig;
}

int onCoreBudget(int cores, const LifetimeConfig& c) {
  return std::max(1,
                  static_cast<int>(cores * (1.0 - c.minDarkFraction) + 1e-9));
}

}  // namespace

LifetimeRun::LifetimeRun(const LifetimeConfig& config, System& system,
                         MappingPolicy& policy)
    : startNanos_(telemetry::nowNanos()),
      config_((validate(config), config)),
      chip_(system.chip()),
      thermal_(system.thermal()),
      leakage_(system.leakage()),
      policy_(policy),
      epochSim_(chip_, thermal_, leakage_, epochConfigFor(system, config)),
      budget_(onCoreBudget(chip_.coreCount(), config)),
      epochCount_(static_cast<int>(
          std::llround(config.horizon / config.epochLength))),
      workloadRng_(config.workloadSeed),
      sensorRng_(config.sensorSeed),
      mapping_(chip_.coreCount()) {
  if (telemetry::enabled()) runsTotal.add();
  const int n = chip_.coreCount();
  result_.horizon = config_.horizon;
  // Sized once: callers keep results (a sweep table holds every run's),
  // so growth slack would stay allocated with them.
  result_.epochs.reserve(static_cast<std::size_t>(epochCount_));
  result_.coreDamage.assign(static_cast<std::size_t>(n), 0.0);
  result_.initialFmax.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    result_.initialFmax[static_cast<std::size_t>(i)] = chip_.initialFmax(i);
  damage_.resize(static_cast<std::size_t>(n));

  if (config_.fixedMix.has_value()) {
    mix_ = *config_.fixedMix;
    HAYAT_REQUIRE(mix_.totalMinThreads() <= budget_,
                  "fixed workload mix does not fit the on-core budget");
  } else {
    mix_ = ParsecLikeSuite::makeMix(workloadRng_, budget_,
                                    config_.nominalFrequency);
  }

  // Distribution mode: one trajectory per failure-graph unit, filled as
  // the epoch loop observes the chip.  Units follow buildSocFailureGraph
  // order — cores 0..n-1, then the shared L2 (biased whenever the chip
  // is powered: stress 1.0 at the chip's time-average temperature).
  if (config_.failure.samples > 0) {
    trajectories_.resize(static_cast<std::size_t>(n) + 1);
    for (UnitTrajectory& t : trajectories_) {
      t.temperature.reserve(static_cast<std::size_t>(epochCount_));
      t.stress.reserve(static_cast<std::size_t>(epochCount_));
    }
  }
  totalPhaseNanos.fetch_add(telemetry::nowNanos() - startNanos_,
                            std::memory_order_relaxed);
}

EpochLane LifetimeRun::beginEpoch() {
  HAYAT_REQUIRE(!done() && !inEpoch_, "no epoch to begin");
  const TotalPhaseTimer timer;
  inEpoch_ = true;
  if (telemetry::enabled()) epochsTotal.add();
  const int n = chip_.coreCount();
  const int e = epoch_;
  if (!config_.fixedMix.has_value() && e > 0) {
    if (config_.mixChurn > 0.0) {
      HAYAT_REQUIRE(carriedMapping_.has_value(),
                    "churn mode lost the previous mapping");
      MixEvolution evo =
          evolveMix(mix_, *carriedMapping_, config_.mixChurn, budget_,
                    config_.nominalFrequency, workloadRng_);
      if (config_.incrementalRemap) {
        // Rebuild the carried mapping against the new mix: surviving
        // threads stay on their cores at their (restored) required
        // frequency; departed applications free their cores.
        Mapping rebased(n);
        for (const MappedThread& t : carriedMapping_->threads()) {
          const int newApp =
              evo.newIndexOfOld[static_cast<std::size_t>(t.ref.app)];
          if (newApp < 0) continue;
          rebased.assign(ThreadRef{newApp, t.ref.thread}, t.core,
                         t.requiredFrequency, t.requiredFrequency);
        }
        carriedMapping_ = std::move(rebased);
        pendingArrivals_ = std::move(evo.arrivals);
      }
      mix_ = std::move(evo.mix);
    } else if (config_.freshMixEachEpoch) {
      mix_ = ParsecLikeSuite::makeMix(workloadRng_, budget_,
                                      config_.nominalFrequency);
    }
  }

  // Sensor view of the health map: ideal sensors pass the truth
  // through; noisy sensors re-read every core's delay factor.
  std::optional<HealthMap> observed;
  if (config_.healthSensorNoise.gaussianSigma > 0.0 ||
      config_.healthSensorNoise.quantization > 0.0) {
    const AgingSensor agingSensor(config_.healthSensorNoise);
    observed.emplace(result_.initialFmax);
    for (int i = 0; i < n; ++i) {
      observed->state(i) = CoreAgingState::fromDelayFactor(agingSensor.read(
          chip_.health().state(i).delayFactor(), sensorRng_));
    }
  }

  PolicyContext ctx;
  ctx.chip = &chip_;
  ctx.thermal = &thermal_;
  ctx.leakage = &leakage_;
  ctx.mix = &mix_;
  ctx.observedHealth = observed.has_value() ? &*observed : nullptr;
  ctx.dvfs = config_.dvfs.has_value() ? &*config_.dvfs : nullptr;
  ctx.observedWear = &result_.coreDamage;
  ctx.minDarkFraction = config_.minDarkFraction;
  ctx.nominalFrequency = config_.nominalFrequency;
  ctx.tsafe = config_.tsafe;
  ctx.epochYears = config_.epochLength;
  ctx.elapsedYears = e * config_.epochLength;

  static std::atomic<std::uint64_t> policySpanSite{0};
  const telemetry::Span policySpan("lifetime.policy_map",
                                   telemetry::sampleSpanSite(policySpanSite));
  const std::uint64_t t0 = telemetry::nowNanos();
  if (config_.incrementalRemap && e > 0) {
    // The Section VI mid-epoch regime: only arrivals are (re)placed.
    mapping_ = *carriedMapping_;
    for (const auto& [appIndex, k] : pendingArrivals_)
      mapping_ = policy_.placeApplication(ctx, mapping_, appIndex, k);
    pendingArrivals_.clear();
  } else {
    mapping_ = policy_.map(ctx);
  }
  policyPhaseNanos.fetch_add(telemetry::nowNanos() - t0,
                             std::memory_order_relaxed);
  return {&epochSim_, &mapping_, &mix_};
}

void LifetimeRun::endEpoch(const EpochResult& window) {
  HAYAT_REQUIRE(inEpoch_, "endEpoch without beginEpoch");
  const TotalPhaseTimer timer;
  inEpoch_ = false;
  const int n = chip_.coreCount();
  if (config_.mixChurn > 0.0) carriedMapping_ = window.finalMapping;

  // Upscale the window's worst-case conditions to the epoch length
  // (Section IV-B: "We record the worst-case temperature over time and
  // the duty cycle for each core").  The NBTI advance runs batched —
  // one cursor-warmed sweep over all cores (aging/health.hpp) — and
  // the Arrhenius damage bookkeeping stays per core.
  {
    static std::atomic<std::uint64_t> agingSpanSite{0};
    const telemetry::Span agingSpan("lifetime.aging_advance",
                                    telemetry::sampleSpanSite(agingSpanSite));
    const std::uint64_t t0 = telemetry::nowNanos();
    chip_.health().advanceAll(chip_.agingTable(),
                              window.peakTemperature.data(),
                              window.duty.data(), config_.epochLength);
    agingPhaseNanos.fetch_add(telemetry::nowNanos() - t0,
                              std::memory_order_relaxed);
  }
  const MttfModel mttf;
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    damage_[si].accumulate(mttf, window.averageTemperature[si],
                           config_.epochLength);
    result_.coreDamage[si] = damage_[si].damage();
  }
  if (!trajectories_.empty()) {
    for (int i = 0; i < n; ++i) {
      const auto si = static_cast<std::size_t>(i);
      trajectories_[si].temperature.push_back(window.averageTemperature[si]);
      trajectories_[si].stress.push_back(window.duty[si]);
    }
    trajectories_[static_cast<std::size_t>(n)].temperature.push_back(
        window.chipTimeAverage);
    trajectories_[static_cast<std::size_t>(n)].stress.push_back(1.0);
  }

  EpochRecord record;
  record.startYear = epoch_ * config_.epochLength;
  record.dtmEvents = window.dtm.events();
  record.migrations = window.dtm.migrations;
  record.throttles = window.dtm.throttles;
  record.chipPeak = window.chipPeak;
  record.chipTimeAverage = window.chipTimeAverage;
  record.throttledSteps = window.throttledSteps;
  record.totalSteps = window.totalSteps;
  record.throughputRatio = window.throughputRatio();
  record.chipFmax = chip_.chipFmax();
  record.averageFmax = chip_.averageFmax();
  const std::vector<double> healths = chip_.health().healthAll();
  record.minHealth = minOf(healths);
  record.averageHealth = mean(healths);
  result_.epochs.push_back(record);
  ++epoch_;
}

LifetimeResult LifetimeRun::finish() {
  HAYAT_REQUIRE(done() && !inEpoch_, "the run has epochs left");
  const TotalPhaseTimer timer;
  result_.finalFmax = chip_.health().currentFmaxAll();
  if (!trajectories_.empty()) {
    SocFailureTopology topology;
    topology.coreCount = chip_.coreCount();
    topology.minAliveCoreFraction = config_.failure.minAliveCoreFraction;
    const FailureMonteCarlo mc(config_.failure,
                               buildSocFailureGraph(topology));
    result_.distribution = mc.run(trajectories_, config_.epochLength);
  }
  return std::move(result_);
}

void advanceInLockstep(std::span<LifetimeRun* const> runs) {
  std::vector<LifetimeRun*> active;
  for (LifetimeRun* run : runs)
    if (!run->done()) active.push_back(run);
  if (active.empty()) return;
  static std::atomic<std::uint64_t> epochSpanSite{0};
  const telemetry::Span epochSpan("lifetime.epoch",
                                  telemetry::sampleSpanSite(epochSpanSite));
  std::vector<EpochLane> begun;
  for (LifetimeRun* run : active) begun.push_back(run->beginEpoch());
  // One runLanes call per set of windows that can share lanes, in the
  // order of their first run.
  std::vector<char> placed(begun.size(), 0);
  std::vector<EpochLane> lanes;
  std::vector<LifetimeRun*> laneRuns;
  for (std::size_t first = 0; first < begun.size(); ++first) {
    if (placed[first]) continue;
    lanes.clear();
    laneRuns.clear();
    for (std::size_t k = first; k < begun.size(); ++k) {
      if (placed[k] || !EpochSimulator::canShareLanes(*begun[first].simulator,
                                                      *begun[k].simulator))
        continue;
      placed[k] = 1;
      lanes.push_back(begun[k]);
      laneRuns.push_back(active[k]);
    }
    const std::vector<EpochResult> windows = timedWindows(lanes);
    for (std::size_t k = 0; k < laneRuns.size(); ++k)
      laneRuns[k]->endEpoch(windows[k]);
  }
}

LifetimeSimulator::LifetimeSimulator(LifetimeConfig config)
    : config_(std::move(config)) {
  validate(config_);
}

LifetimeResult LifetimeSimulator::run(System& system,
                                      MappingPolicy& policy) const {
  const telemetry::Span runSpan("lifetime.run");
  LifetimeRun run(config_, system, policy);
  LifetimeRun* const runs[] = {&run};
  while (!run.done()) advanceInLockstep(runs);
  return run.finish();
}

}  // namespace hayat
