// Lane-batched windows: the interleaved banded solve, lockstep epoch
// windows, LifetimeRun, the engine's lockstep groups, the pooled DTM target
// search and the per-package steady kernel.  Every lockstep path must
// reproduce the bytes of the one-lane path exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sparse.hpp"
#include "core/lifetime.hpp"
#include "core/system.hpp"
#include "engine/builtin_policies.hpp"
#include "engine/engine.hpp"
#include "engine/reporter.hpp"
#include "engine/result_cache.hpp"
#include "runtime/dtm.hpp"
#include "runtime/epoch.hpp"
#include "runtime/policy_registry.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/transient.hpp"
#include "workload/generator.hpp"

namespace hayat {
namespace {

ThermalConfig packageConfig(int edge) {
  ThermalConfig tc;
  tc.floorplan = FloorPlan(GridShape(edge, edge), 1.70e-3, 1.75e-3);
  return tc;
}

SystemConfig gridSystem(int edge) {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(edge, edge);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  sc.epoch.window = 0.3;
  return sc;
}

bool sameBytes(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Solves each right-hand side alone and all of them through one lane
/// sweep; every lane must match its lone solve byte for byte.
void expectLanesMatchSolvePermuted(const BandedFactorization& lu,
                                   const std::vector<int>& perm, int width,
                                   Rng& rng, const std::string& label) {
  const auto n = static_cast<std::size_t>(lu.size());
  std::vector<Vector> lanes(static_cast<std::size_t>(width), Vector(n));
  for (Vector& rhs : lanes)
    for (double& v : rhs) v = rng.uniform(-50.0, 400.0);
  std::vector<Vector> alone = lanes;
  Vector scratch(n);
  for (Vector& rhs : alone) lu.solvePermuted(rhs, scratch, perm);
  std::vector<double*> pointers;
  for (Vector& rhs : lanes) pointers.push_back(rhs.data());
  Vector interleaved(n * static_cast<std::size_t>(width));
  if (width == 2)
    lu.solvePermutedLanes<2>(pointers.data(), interleaved.data(), perm);
  else
    lu.solvePermutedLanes<4>(pointers.data(), interleaved.data(), perm);
  for (std::size_t l = 0; l < lanes.size(); ++l)
    ASSERT_TRUE(sameBytes(lanes[l], alone[l]))
        << label << " width " << width << " lane " << l;
}

/// Random symmetric diagonally dominant matrix inside |i-j| <= band with
/// an irregular pattern, so row envelopes start anywhere in a jammed
/// pair.
SparseMatrix randomBanded(int n, int band, Rng& rng) {
  SparseMatrixBuilder builder(n, n);
  std::vector<double> rowAbs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j <= std::min(n - 1, i + band); ++j) {
      if (rng.uniform() < 0.6) continue;
      const double v = rng.uniform(-2.0, 2.0);
      builder.add(i, j, v);
      builder.add(j, i, v);
      rowAbs[static_cast<std::size_t>(i)] += std::abs(v);
      rowAbs[static_cast<std::size_t>(j)] += std::abs(v);
    }
  }
  for (int i = 0; i < n; ++i)
    builder.add(i, i, rowAbs[static_cast<std::size_t>(i)] + 1.0);
  return builder.build();
}

// --- Lane kernel -------------------------------------------------------

TEST(LaneSolve, MatchesSolvePermutedBitwiseFuzz) {
  Rng rng(2026);
  // The transient operators the epoch loop solves with.
  for (const int edge : {4, 8, 16}) {
    const ThermalModel model(packageConfig(edge));
    const auto op = model.transientOperator(6.6e-3);
    for (int trial = 0; trial < 8; ++trial)
      for (const int width : {2, 4})
        expectLanesMatchSolvePermuted(*op->solver.banded(),
                                      op->solver.permutation(), width, rng,
                                      std::to_string(edge) + "x" +
                                          std::to_string(edge));
  }
  // Irregular envelopes, odd sizes and zero bands under random orders.
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 1 + rng.uniformInt(37);
    const SparseMatrix a = randomBanded(n, rng.uniformInt(std::min(n, 9)),
                                        rng);
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(rng.uniformInt(i + 1))]);
    const RcSolver solver(a, perm, RcSolver::Mode::Banded);
    for (const int width : {2, 4})
      expectLanesMatchSolvePermuted(*solver.banded(), solver.permutation(),
                                    width, rng,
                                    "random trial " + std::to_string(trial));
  }
}

TEST(LaneSolve, StepLanesMatchesStepInPlaceAtEveryWidth) {
  // One to seven lanes: blocks of four and two plus a lone remainder.
  const ThermalModel model(packageConfig(8));
  const TransientSolver solver(model, 6.6e-3);
  Rng rng(7);
  for (int count = 1; count <= 7; ++count) {
    std::vector<Vector> temps;
    std::vector<Vector> powers;
    for (int k = 0; k < count; ++k) {
      Vector power(static_cast<std::size_t>(model.coreCount()));
      for (double& p : power) p = rng.uniform(0.0, 4.0);
      temps.push_back(solver.initialState(power));
      powers.push_back(std::move(power));
    }
    std::vector<Vector> alone = temps;
    std::vector<Vector*> tempPointers;
    std::vector<const Vector*> powerPointers;
    for (int k = 0; k < count; ++k) {
      tempPointers.push_back(&temps[static_cast<std::size_t>(k)]);
      powerPointers.push_back(&powers[static_cast<std::size_t>(k)]);
    }
    Vector scratch;
    Vector aloneScratch;
    for (int step = 0; step < 5; ++step) {
      solver.stepLanes(tempPointers, powerPointers, scratch);
      for (int k = 0; k < count; ++k)
        solver.stepInPlace(alone[static_cast<std::size_t>(k)],
                           powers[static_cast<std::size_t>(k)],
                           aloneScratch);
    }
    for (int k = 0; k < count; ++k)
      EXPECT_TRUE(sameBytes(temps[static_cast<std::size_t>(k)],
                            alone[static_cast<std::size_t>(k)]))
          << count << " lanes, lane " << k;
  }
}

// --- Lockstep windows --------------------------------------------------

/// Up to half the cores busy, every `stride`-th core from core 0, at
/// each core's reachable frequency.
Mapping alternateMapping(const WorkloadMix& mix, const Chip& chip,
                         int stride = 2) {
  const int n = chip.coreCount();
  const auto threads = runnableThreads(mix, chooseParallelism(mix, n / 2));
  Mapping m(n);
  int core = 0;
  for (const RunnableThread& t : threads) {
    m.assign(t.ref, core, std::min(t.minFrequency, chip.currentFmax(core)),
             t.minFrequency);
    core += stride;
  }
  return m;
}

bool sameWindow(const EpochResult& a, const EpochResult& b) {
  bool same = sameBytes(a.averageTemperature, b.averageTemperature) &&
              sameBytes(a.peakTemperature, b.peakTemperature) &&
              sameBytes(a.duty, b.duty) && a.chipPeak == b.chipPeak &&
              a.chipTimeAverage == b.chipTimeAverage &&
              a.dtm.migrations == b.dtm.migrations &&
              a.dtm.throttles == b.dtm.throttles &&
              a.dtm.restores == b.dtm.restores &&
              a.throttledSteps == b.throttledSteps &&
              a.totalSteps == b.totalSteps &&
              a.achievedIps == b.achievedIps &&
              a.requiredIps == b.requiredIps;
  for (int c = 0; same && c < a.finalMapping.coreCount(); ++c) {
    const auto& x = a.finalMapping.onCore(c);
    const auto& y = b.finalMapping.onCore(c);
    same = x.has_value() == y.has_value() &&
           (!x.has_value() ||
            (x->ref == y->ref && x->frequency == y->frequency &&
             x->requiredFrequency == y->requiredFrequency));
  }
  return same;
}

TEST(LaneWindow, SixteenBySixteenLaneWindowWithMigrationsIsAllocationFree) {
  std::vector<System> systems;
  systems.push_back(System::create(gridSystem(16), 77, 0));
  systems.push_back(System::create(gridSystem(16), 77, 1));
  EpochConfig ec;
  ec.window = 0.3;
  ec.dtm.tsafe = 345.0;  // the packed half runs hot, the other half cold
  std::vector<EpochSimulator> sims;
  std::vector<WorkloadMix> mixes;
  std::vector<Mapping> mappings;
  for (std::size_t k = 0; k < systems.size(); ++k) {
    ec.thermalSensorSeed = 515 + k;
    sims.emplace_back(systems[k].chip(), systems[k].thermal(),
                      systems[k].leakage(), ec);
    Rng rng(5 + k);
    mixes.push_back(ParsecLikeSuite::makeMix(rng, 128, 3.0e9));
    mappings.push_back(
        alternateMapping(mixes.back(), systems[k].chip(), /*stride=*/1));
  }
  const std::vector<EpochLane> lanes = {
      {&sims[0], &mappings[0], &mixes[0]}, {&sims[1], &mappings[1], &mixes[1]}};
  const std::uint64_t before = epochStepLoopAllocs();
  const long runsBefore = epochSimulatorRunCount();
  const std::vector<EpochResult> together = EpochSimulator::runLanes(lanes);
  const std::uint64_t loopAllocs = epochStepLoopAllocs() - before;
  EXPECT_EQ(epochSimulatorRunCount() - runsBefore, 2);
  ASSERT_EQ(together.size(), 2u);
  EXPECT_GT(together[0].dtm.migrations + together[1].dtm.migrations, 0);
  if (allocCounterActive()) {
    EXPECT_EQ(loopAllocs, 0u) << "the lane step loop allocated";
  }
  for (std::size_t k = 0; k < lanes.size(); ++k)
    EXPECT_TRUE(sameWindow(together[k], sims[k].run(mappings[k], mixes[k])))
        << "lane " << k;
}

TEST(Lockstep, RejectsMismatchedOperators) {
  System a = System::create(gridSystem(4), 3);
  SystemConfig hotter = gridSystem(4);
  hotter.thermal.convectionResistance *= 2.0;
  System b = System::create(hotter, 3);
  Rng rng(11);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);
  const Mapping ma = alternateMapping(mix, a.chip());
  const Mapping mb = alternateMapping(mix, b.chip());
  EpochConfig ec;
  ec.window = 0.1;
  const EpochSimulator sa(a.chip(), a.thermal(), a.leakage(), ec);
  const EpochSimulator sb(b.chip(), b.thermal(), b.leakage(), ec);
  EXPECT_FALSE(EpochSimulator::canShareLanes(sa, sb));
  const std::vector<EpochLane> package = {{&sa, &ma, &mix}, {&sb, &mb, &mix}};
  EXPECT_THROW(EpochSimulator::runLanes(package), Error);

  // Same operator, different step counts.
  EpochConfig longer = ec;
  longer.window = 0.2;
  const EpochSimulator sl(a.chip(), a.thermal(), a.leakage(), longer);
  EXPECT_FALSE(EpochSimulator::canShareLanes(sa, sl));
  const std::vector<EpochLane> steps = {{&sa, &ma, &mix}, {&sl, &ma, &mix}};
  EXPECT_THROW(EpochSimulator::runLanes(steps), Error);
  EXPECT_THROW(EpochSimulator::runLanes({}), Error);
}

// --- LifetimeRun and lockstep runs ---------------------------------------

/// Every byte of a lifetime result: the epochs CSV, the final fmax and
/// damage, and the sampled distribution.
std::string lifetimeBytes(const LifetimeResult& life) {
  engine::SweepTable table;
  engine::RunResult run;
  run.lifetime = life;
  table.runs.push_back(std::move(run));
  std::ostringstream out;
  engine::writeEpochsCsv(out, table);
  char buf[40];
  for (const double v : life.finalFmax) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    out << buf;
  }
  for (const double v : life.coreDamage) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    out << buf;
  }
  out << "\n";
  if (life.distribution) writeDistribution(out, *life.distribution);
  return out.str();
}

/// One lockstep lane's inputs.
struct RunSpec {
  const char* policy;
  int chip;
  SystemConfig system;
  LifetimeConfig lifetime;
};

std::unique_ptr<MappingPolicy> makePolicy(const char* name) {
  engine::registerBuiltinPolicies();
  return PolicyRegistry::global().make({name, {}});
}

std::string runAlone(const RunSpec& spec) {
  System system = System::create(spec.system, 2015, spec.chip);
  const auto policy = makePolicy(spec.policy);
  return lifetimeBytes(LifetimeSimulator(spec.lifetime).run(system, *policy));
}

std::vector<std::string> runTogether(const std::vector<RunSpec>& specs) {
  std::vector<std::optional<System>> systems(specs.size());
  std::vector<std::unique_ptr<MappingPolicy>> policies;
  std::vector<std::unique_ptr<LifetimeRun>> runs;
  std::vector<LifetimeRun*> lanes;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    systems[k].emplace(
        System::create(specs[k].system, 2015, specs[k].chip));
    policies.push_back(makePolicy(specs[k].policy));
    runs.push_back(std::make_unique<LifetimeRun>(
        specs[k].lifetime, *systems[k], *policies.back()));
    lanes.push_back(runs.back().get());
  }
  while (std::any_of(lanes.begin(), lanes.end(),
                     [](const LifetimeRun* r) { return !r->done(); }))
    advanceInLockstep(lanes);
  std::vector<std::string> out;
  for (LifetimeRun* run : lanes) out.push_back(lifetimeBytes(run->finish()));
  return out;
}

LifetimeConfig shortLifetime(double dark) {
  LifetimeConfig lc;
  lc.horizon = 1.0;
  lc.epochLength = 0.25;
  lc.minDarkFraction = dark;
  lc.workloadSeed = 77;
  return lc;
}

TEST(LifetimeRun, AdvanceLoopEqualsRun) {
  for (const char* policy : {"VAA", "Hayat"}) {
    RunSpec spec{policy, 1, gridSystem(4), shortLifetime(0.5)};
    spec.lifetime.failure.samples = 64;
    System system = System::create(spec.system, 2015, spec.chip);
    const auto p = makePolicy(policy);
    LifetimeRun run(spec.lifetime, system, *p);
    EXPECT_THROW(run.finish(), Error);
    const EpochResult idle{Vector(16, 0.0), Vector(16, 0.0),
                           std::vector<double>(16, 0.0), 0.0, 0.0, {}, 0, 0,
                           0.0, 0.0, Mapping(16)};
    EXPECT_THROW(run.endEpoch(idle), Error);
    // The plain begin / window / end loop: the one-run advanceInLockstep
    // that run() loops over must take the same steps.
    int epochs = 0;
    while (!run.done()) {
      const EpochLane lane = run.beginEpoch();
      run.endEpoch(lane.simulator->run(*lane.mapping, *lane.mix));
      ++epochs;
    }
    EXPECT_EQ(epochs, 4);
    EXPECT_THROW(run.beginEpoch(), Error);
    EXPECT_EQ(lifetimeBytes(run.finish()), runAlone(spec)) << policy;
  }
}

TEST(Lockstep, GroupsEqualSequentialRuns) {
  struct Variant {
    const char* label;
    void (*apply)(RunSpec&);
  };
  const Variant variants[] = {
      {"plain", [](RunSpec&) {}},
      {"dtm active", [](RunSpec& s) { s.lifetime.tsafe = 345.0; }},
      {"churn with incremental remap",
       [](RunSpec& s) {
         s.lifetime.mixChurn = 0.5;
         s.lifetime.incrementalRemap = true;
       }},
      {"noisy sensors",
       [](RunSpec& s) {
         s.lifetime.healthSensorNoise.gaussianSigma = 0.01;
         s.system.epoch.thermalSensorNoise.gaussianSigma = 1.0;
         s.lifetime.tsafe = 350.0;
       }},
      {"distribution mode",
       [](RunSpec& s) { s.lifetime.failure.samples = 128; }},
      // Lanes at different epochs: each lane's horizon differs.
      {"staggered horizons",
       [](RunSpec& s) { s.lifetime.horizon = 0.25 * (1 + s.chip); }},
  };
  for (const Variant& variant : variants) {
    for (const int width : {2, 4}) {
      std::vector<RunSpec> specs;
      for (int k = 0; k < width; ++k) {
        RunSpec spec{k % 2 == 0 ? "VAA" : "Hayat", k, gridSystem(4),
                     shortLifetime(k < 2 ? 0.5 : 0.25)};
        spec.system.epoch.thermalSensorSeed = 515 + static_cast<unsigned>(k);
        spec.lifetime.workloadSeed = 77 + static_cast<unsigned>(k);
        variant.apply(spec);
        specs.push_back(spec);
      }
      const long windowsBefore = epochSimulatorRunCount();
      const std::vector<std::string> together = runTogether(specs);
      long expectedWindows = 0;
      for (const RunSpec& s : specs)
        expectedWindows += std::llround(s.lifetime.horizon / 0.25);
      EXPECT_EQ(epochSimulatorRunCount() - windowsBefore, expectedWindows)
          << variant.label;
      for (int k = 0; k < width; ++k)
        EXPECT_EQ(together[static_cast<std::size_t>(k)],
                  runAlone(specs[static_cast<std::size_t>(k)]))
            << variant.label << ", width " << width << ", lane " << k;
    }
  }
}

TEST(Lockstep, RunsOnDifferentPackagesAdvanceSeparately) {
  // advanceInLockstep never hands runLanes a mixed set: runs on another
  // package step in their own window, and every run keeps its bytes.
  std::vector<RunSpec> specs = {{"VAA", 0, gridSystem(4), shortLifetime(0.5)},
                                {"Hayat", 1, gridSystem(4), shortLifetime(0.5)},
                                {"VAA", 2, gridSystem(4), shortLifetime(0.5)}};
  specs[1].system.thermal.convectionResistance *= 2.0;
  const std::vector<std::string> together = runTogether(specs);
  for (std::size_t k = 0; k < specs.size(); ++k)
    EXPECT_EQ(together[k], runAlone(specs[k])) << "run " << k;
}

// --- Engine lanes --------------------------------------------------------

engine::ExperimentSpec eightTaskSpec() {
  engine::ExperimentSpec spec;
  spec.name = "lanes";
  spec.system.population.coreGrid = {4, 4};
  spec.lifetime.horizon = 0.5;
  spec.lifetime.epochLength = 0.25;
  spec.policies = {{"VAA", {}}, {"Hayat", {}}};
  spec.chips = {0, 1};
  spec.darkFractions = {0.25, 0.5};
  return spec;
}

std::string tableBytes(const engine::SweepTable& table) {
  std::ostringstream out;
  for (const engine::RunResult& r : table.runs) engine::writeRunResult(out, r);
  engine::writeEpochsCsv(out, table);
  return out.str();
}

TEST(EngineLanes, WidthRule) {
  using engine::ExperimentEngine;
  EXPECT_EQ(ExperimentEngine::laneWidth(8, 4), 2);    // paper_sweep
  EXPECT_EQ(ExperimentEngine::laneWidth(100, 4), 4);  // the full sweep
  EXPECT_EQ(ExperimentEngine::laneWidth(8, 1), 4);
  EXPECT_EQ(ExperimentEngine::laneWidth(8, 3), 2);
  EXPECT_EQ(ExperimentEngine::laneWidth(7, 4), 1);
  EXPECT_EQ(ExperimentEngine::laneWidth(1, 1), 1);
  EXPECT_EQ(ExperimentEngine::laneWidth(8, 0), 4);
}

TEST(EngineLanes, TableBytesIndependentOfWorkers) {
  ::unsetenv("HAYAT_DISPATCH");
  const engine::ExperimentSpec spec = eightTaskSpec();
  ASSERT_EQ(spec.taskCount(), 8);
  std::string reference;
  for (const int workers : {1, 2, 3, 4, 8}) {
    engine::EngineConfig config;
    config.workers = workers;
    config.cache = false;
    const std::string bytes =
        tableBytes(engine::ExperimentEngine(config).run(spec));
    if (reference.empty())
      reference = bytes;
    else
      EXPECT_EQ(bytes, reference) << workers << " workers";
  }
  // And each row is its lone runTask.
  engine::SweepTable alone;
  for (const engine::RunTask& task : engine::ExperimentEngine::expand(spec))
    alone.runs.push_back(
        engine::ExperimentEngine::runTask(task, spec.populationSeed));
  EXPECT_EQ(tableBytes(alone), reference);
}

TEST(EngineLanes, StaggeredHorizonsInOneGroupKeepTheirBytes) {
  // One long task among short ones: its group outlives the others, and
  // after its partner's horizon it steps on alone.
  std::vector<engine::RunTask> tasks =
      engine::ExperimentEngine::expand(eightTaskSpec());
  tasks[0].lifetime.horizon = 2.0;
  const std::uint64_t seed = eightTaskSpec().populationSeed;
  engine::SweepTable alone;
  for (const engine::RunTask& task : tasks)
    alone.runs.push_back(engine::ExperimentEngine::runTask(task, seed));
  for (const int width : {2, 4}) {
    engine::SweepTable pooled;
    pooled.runs = engine::ExperimentEngine::runTasks(tasks, seed, 3, width);
    EXPECT_EQ(tableBytes(pooled), tableBytes(alone)) << "width " << width;
  }
}

// The reference twins are per-model config: a dense-LU, scalar-aging run
// and a default run of the same package share one process and run at
// once, each reading only its own models' fields (the shared steady,
// transient and aging-table memos included), and give the same bytes.
TEST(ReferenceTwins, ReferenceAndDefaultRunsOnTwoThreadsGiveTheSameBytes) {
  const engine::ExperimentSpec spec = eightTaskSpec();
  const std::vector<engine::RunTask> fast =
      engine::ExperimentEngine::expand(spec);
  std::vector<engine::RunTask> reference = fast;
  for (engine::RunTask& task : reference) {
    task.system.thermal.solver = RcSolver::Mode::Dense;
    task.system.agingTable.scalarReference = true;
  }
  const auto runOn = [&spec](const std::vector<engine::RunTask>& tasks) {
    return std::async(std::launch::async, [&tasks, &spec] {
      return engine::ExperimentEngine::runTasks(tasks, spec.populationSeed, 1,
                                                2);
    });
  };
  auto referenceRuns = runOn(reference);
  auto fastRuns = runOn(fast);
  const std::vector<engine::RunResult> referenceResults = referenceRuns.get();
  const std::vector<engine::RunResult> fastResults = fastRuns.get();
  ASSERT_EQ(fastResults.size(), referenceResults.size());
  for (std::size_t k = 0; k < fastResults.size(); ++k) {
    std::ostringstream x;
    std::ostringstream y;
    engine::writeRunResult(x, fastResults[k]);
    engine::writeRunResult(y, referenceResults[k]);
    EXPECT_EQ(x.str(), y.str()) << "task " << k;
  }
}

// --- DTM target pool -----------------------------------------------------

/// The target search as a scan over every core per hot core, with a
/// map of cooldowns: the reference the pooled search must reproduce.
class ScanDtm {
 public:
  explicit ScanDtm(DtmConfig config) : config_(config) {}

  int enforce(Mapping& mapping, const Vector& temps, const HealthMap& health) {
    const int n = mapping.coreCount();
    ++tick_;
    int actions = 0;
    std::vector<int> hot;
    for (int i = 0; i < n; ++i) {
      const auto& slot = mapping.onCore(i);
      if (!slot.has_value()) continue;
      const double t = temps[static_cast<std::size_t>(i)];
      if (slot->frequency < slot->requiredFrequency &&
          t < config_.tsafe - config_.coldMargin) {
        mapping.restoreFrequency(i);
        ++stats.restores;
      }
      if (t >= config_.tsafe) hot.push_back(i);
    }
    std::sort(hot.begin(), hot.end(), [&](int a, int b) {
      return temps[static_cast<std::size_t>(a)] >
             temps[static_cast<std::size_t>(b)];
    });
    for (const int hotCore : hot) {
      const auto& slot = mapping.onCore(hotCore);
      const Hertz required = slot->requiredFrequency;
      const auto key = std::make_pair(slot->ref.app, slot->ref.thread);
      const auto last = lastMigration_.find(key);
      const bool inCooldown =
          last != lastMigration_.end() &&
          tick_ - last->second < config_.migrationCooldownChecks;
      int target = -1;
      double targetTemp = 0.0;
      if (!inCooldown) {
        for (int i = 0; i < n; ++i) {
          if (mapping.coreBusy(i)) continue;
          const double t = temps[static_cast<std::size_t>(i)];
          if (t > config_.tsafe - config_.coldMargin) continue;
          if (health.currentFmax(i) < required) continue;
          if (target < 0 || t < targetTemp) {
            target = i;
            targetTemp = t;
          }
        }
      }
      if (target >= 0) {
        mapping.migrate(hotCore, target);
        lastMigration_[key] = tick_;
        ++stats.migrations;
        ++actions;
      } else {
        const Hertz throttled =
            std::max(config_.minimumFrequency,
                     slot->frequency * config_.throttleFactor);
        if (throttled < slot->frequency) {
          mapping.setFrequency(hotCore, throttled);
          ++stats.throttles;
          ++actions;
        }
      }
    }
    return actions;
  }

  DtmStats stats;

 private:
  DtmConfig config_;
  long tick_ = 0;
  std::map<std::pair<int, int>, long> lastMigration_;
};

bool sameMapping(const Mapping& a, const Mapping& b) {
  for (int c = 0; c < a.coreCount(); ++c) {
    const auto& x = a.onCore(c);
    const auto& y = b.onCore(c);
    if (x.has_value() != y.has_value()) return false;
    if (x.has_value() &&
        (!(x->ref == y->ref) || x->frequency != y->frequency ||
         x->requiredFrequency != y->requiredFrequency))
      return false;
  }
  return true;
}

TEST(DtmPool, MatchesReferenceScanFuzz) {
  Rng rng(99);
  long migrations = 0;
  long vacatedReuse = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + rng.uniformInt(24);
    DtmConfig config;
    config.tsafe = 368.0;
    config.coldMargin = trial % 3 == 0 ? 0.0 : 2.0 * rng.uniformInt(6);
    config.migrationCooldownChecks = rng.uniformInt(4);
    std::vector<Hertz> fmax(static_cast<std::size_t>(n));
    for (Hertz& f : fmax) f = rng.uniform(1.5e9, 3.0e9);
    const HealthMap health(fmax);
    Mapping mapping(n);
    int thread = 0;
    for (int c = 0; c < n; ++c) {
      if (rng.uniform() < 0.5) continue;
      const Hertz f = rng.uniform(1.0e9, 2.8e9);
      mapping.assign({thread / 3, thread % 3}, c, f, f);
      ++thread;
    }
    Mapping reference = mapping;
    DtmManager pooled(config);
    ScanDtm scan(config);
    for (int step = 0; step < 30; ++step) {
      // Whole kelvins around Tsafe: ties and exact-Tsafe cores are common.
      Vector temps(static_cast<std::size_t>(n));
      for (double& t : temps) t = 355.0 + rng.uniformInt(20);
      const Mapping beforeStep = mapping;
      const int got = pooled.enforce(mapping, temps, health);
      const int want = scan.enforce(reference, temps, health);
      ASSERT_EQ(got, want) << "trial " << trial << " step " << step;
      ASSERT_TRUE(sameMapping(mapping, reference))
          << "trial " << trial << " step " << step;
      // A migration onto a core that was busy at the check's start is
      // only possible through a core vacated in the same check.
      for (int c = 0; c < n; ++c)
        if (beforeStep.coreBusy(c) && mapping.coreBusy(c) &&
            !(mapping.onCore(c)->ref == beforeStep.onCore(c)->ref))
          ++vacatedReuse;
    }
    EXPECT_EQ(pooled.stats().migrations, scan.stats.migrations);
    EXPECT_EQ(pooled.stats().throttles, scan.stats.throttles);
    EXPECT_EQ(pooled.stats().restores, scan.stats.restores);
    migrations += scan.stats.migrations;
  }
  EXPECT_GT(migrations, 100);
  EXPECT_GT(vacatedReuse, 0) << "the zero-margin re-entry was not reached";
}

// --- Steady kernel -------------------------------------------------------

TEST(SteadyKernel, SharedPerPackage) {
  const ThermalModel a(packageConfig(16));
  const ThermalModel b(packageConfig(16));
  EXPECT_EQ(&a.coreInfluenceMatrix(), &b.coreInfluenceMatrix());
  EXPECT_EQ(&a.coreInfluenceProfile(), &b.coreInfluenceProfile());
  ThermalConfig warmer = packageConfig(16);
  warmer.ambient += 1.0;
  const ThermalModel c(warmer);
  EXPECT_NE(&a.coreInfluenceMatrix(), &c.coreInfluenceMatrix());
}

}  // namespace
}  // namespace hayat
