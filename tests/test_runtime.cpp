// Tests for the runtime substrate: Mapping invariants (Eq. 5), the
// thermal-profile predictor ([27]-style superposition), the health
// estimator, the DTM controller, and the epoch simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "aging/health.hpp"
#include "common/alloc_counter.hpp"
#include "common/error.hpp"
#include "core/hayat_policy.hpp"
#include "core/system.hpp"
#include "power/thermal_coupling.hpp"
#include "predictor_reference.hpp"
#include "runtime/dtm.hpp"
#include "runtime/epoch.hpp"
#include "runtime/health_estimator.hpp"
#include "runtime/mapping.hpp"
#include "runtime/noc.hpp"
#include "runtime/thermal_predictor.hpp"
#include "workload/generator.hpp"

namespace hayat {
namespace {

SystemConfig smallConfig() {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(4, 4);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  return sc;
}

WorkloadMix smallMix(int budget = 8, std::uint64_t seed = 42) {
  Rng rng(seed);
  return ParsecLikeSuite::makeMix(rng, budget, 3.0e9);
}

// --- Mapping ---------------------------------------------------------------

TEST(Mapping, AssignAndQuery) {
  Mapping m(4);
  m.assign({0, 1}, 2, 2.0e9);
  EXPECT_TRUE(m.coreBusy(2));
  EXPECT_FALSE(m.coreBusy(0));
  EXPECT_EQ(m.assignedCount(), 1);
  ASSERT_TRUE(m.onCore(2).has_value());
  EXPECT_EQ(m.onCore(2)->ref.thread, 1);
  EXPECT_DOUBLE_EQ(m.onCore(2)->frequency, 2.0e9);
  EXPECT_DOUBLE_EQ(m.onCore(2)->requiredFrequency, 2.0e9);
}

TEST(Mapping, Eq5OneThreadPerCore) {
  Mapping m(4);
  m.assign({0, 0}, 1, 1e9);
  EXPECT_THROW(m.assign({0, 1}, 1, 1e9), Error);
}

TEST(Mapping, UnassignIsIdempotent) {
  Mapping m(4);
  m.assign({0, 0}, 1, 1e9);
  m.unassign(1);
  EXPECT_EQ(m.assignedCount(), 0);
  m.unassign(1);  // no-op
  EXPECT_EQ(m.assignedCount(), 0);
}

TEST(Mapping, MigrateMovesThread) {
  Mapping m(4);
  m.assign({2, 3}, 0, 1.5e9);
  m.migrate(0, 3);
  EXPECT_FALSE(m.coreBusy(0));
  ASSERT_TRUE(m.onCore(3).has_value());
  EXPECT_EQ(m.onCore(3)->ref.app, 2);
  EXPECT_EQ(m.onCore(3)->core, 3);
  EXPECT_THROW(m.migrate(3, 3), Error);
  EXPECT_THROW(m.migrate(1, 2), Error);  // nothing on core 1
}

TEST(Mapping, ThrottleAndRestore) {
  Mapping m(2);
  m.assign({0, 0}, 0, 2.0e9);
  m.setFrequency(0, 1.0e9);
  EXPECT_DOUBLE_EQ(m.onCore(0)->frequency, 1.0e9);
  EXPECT_DOUBLE_EQ(m.onCore(0)->requiredFrequency, 2.0e9);
  m.restoreFrequency(0);
  EXPECT_DOUBLE_EQ(m.onCore(0)->frequency, 2.0e9);
}

TEST(Mapping, ExplicitRequiredFrequency) {
  Mapping m(2);
  m.assign({0, 0}, 0, 1.5e9, 2.5e9);  // core can't reach the requirement
  EXPECT_DOUBLE_EQ(m.onCore(0)->requiredFrequency, 2.5e9);
}

TEST(Mapping, DarkCoreMapReflectsAssignment) {
  Mapping m(4);
  m.assign({0, 0}, 1, 1e9);
  m.assign({0, 1}, 3, 1e9);
  const DarkCoreMap dcm = m.toDarkCoreMap(GridShape(2, 2));
  EXPECT_TRUE(dcm.isOn(1));
  EXPECT_TRUE(dcm.isOn(3));
  EXPECT_EQ(dcm.onCount(), 2);
}

TEST(Mapping, DynamicPowerScalesWithFrequency) {
  const WorkloadMix mix = smallMix();
  Mapping m(16);
  const ThreadProfile& t0 = mix.applications[0].thread(0);
  m.assign({0, 0}, 5, 1.5e9);
  const Vector p = m.averageDynamicPower(mix, 3.0e9);
  EXPECT_NEAR(p[5], t0.averagePower() * 0.5, 1e-9);
  for (int i = 0; i < 16; ++i)
    if (i != 5) {
      EXPECT_DOUBLE_EQ(p[static_cast<std::size_t>(i)], 0.0);
    }
}

TEST(Mapping, PhasedPowerFollowsTrace) {
  const WorkloadMix mix = smallMix();
  Mapping m(16);
  m.assign({0, 0}, 2, 3.0e9);
  const ThreadProfile& prof = mix.applications[0].thread(0);
  const Vector p0 = m.dynamicPowerAt(mix, 0.0, 3.0e9);
  EXPECT_NEAR(p0[2], prof.phaseAt(0.0).dynamicPower, 1e-9);
}

// --- NoC model ----------------------------------------------------------------

TEST(Noc, ZeroTrafficWhenThreadsColocatedOrAlone) {
  const GridShape grid(4, 4);
  const NocModel noc(grid);
  const WorkloadMix mix = smallMix(8, 5);
  Mapping m(16);
  m.assign({0, 0}, 3, 1e9);  // one thread only: no pairs
  EXPECT_DOUBLE_EQ(noc.hopTraffic(m, mix), 0.0);
  EXPECT_DOUBLE_EQ(noc.averageHopDistance(m, mix), 0.0);
}

TEST(Noc, AdjacentCheaperThanScattered) {
  const GridShape grid(4, 4);
  const NocModel noc(grid);
  const WorkloadMix mix = smallMix(8, 5);
  ASSERT_GE(mix.applications[0].maxThreads(), 2);
  Mapping close(16), far(16);
  close.assign({0, 0}, 0, 1e9);
  close.assign({0, 1}, 1, 1e9);  // 1 hop
  far.assign({0, 0}, 0, 1e9);
  far.assign({0, 1}, 15, 1e9);  // 6 hops
  EXPECT_LT(noc.hopTraffic(close, mix), noc.hopTraffic(far, mix));
  EXPECT_DOUBLE_EQ(noc.averageHopDistance(close, mix), 1.0);
  EXPECT_DOUBLE_EQ(noc.averageHopDistance(far, mix), 6.0);
}

TEST(Noc, DifferentApplicationsDoNotCommunicate) {
  const GridShape grid(4, 4);
  const NocModel noc(grid);
  WorkloadMix mix = smallMix(8, 5);
  ASSERT_GE(mix.applications.size(), 2u);
  Mapping m(16);
  m.assign({0, 0}, 0, 1e9);
  m.assign({1, 0}, 15, 1e9);  // other app, far away
  EXPECT_DOUBLE_EQ(noc.hopTraffic(m, mix), 0.0);
}

TEST(Noc, MemoryBoundPairsAreHeavier) {
  const ThreadProfile cpuBound({{1.0, 4.0, 0.7, 1.9}}, 2e9);
  const ThreadProfile memBound({{1.0, 2.0, 0.3, 0.5}}, 1e9);
  EXPECT_GT(NocModel::pairIntensity(memBound, memBound),
            NocModel::pairIntensity(cpuBound, cpuBound));
  EXPECT_DOUBLE_EQ(NocModel::pairIntensity(cpuBound, memBound),
                   NocModel::pairIntensity(memBound, cpuBound));
}

TEST(Noc, PowerScalesWithEnergyPerFlitHop) {
  const GridShape grid(2, 2);
  NocConfig cfg;
  cfg.energyPerFlitHop = 2.0e-10;
  const NocModel a(grid, NocConfig{});
  const NocModel b(grid, cfg);
  const WorkloadMix mix = smallMix(8, 5);
  Mapping m(4);
  m.assign({0, 0}, 0, 1e9);
  m.assign({0, 1}, 3, 1e9);
  EXPECT_NEAR(b.communicationPower(m, mix),
              2.0 * a.communicationPower(m, mix), 1e-15);
}

// --- chooseParallelism -------------------------------------------------------

TEST(Parallelism, KeepsMaxWhenBudgetAllows) {
  const WorkloadMix mix = smallMix(8);
  const auto k = chooseParallelism(mix, 64);
  for (std::size_t j = 0; j < k.size(); ++j)
    EXPECT_EQ(k[j], mix.applications[j].maxThreads());
}

TEST(Parallelism, ShrinksToBudget) {
  const WorkloadMix mix = smallMix(32, 7);
  const int budget = mix.totalMinThreads() +
                     (mix.totalMaxThreads() - mix.totalMinThreads()) / 2;
  const auto k = chooseParallelism(mix, budget);
  int total = 0;
  for (std::size_t j = 0; j < k.size(); ++j) {
    EXPECT_GE(k[j], mix.applications[j].minThreads());
    EXPECT_LE(k[j], mix.applications[j].maxThreads());
    total += k[j];
  }
  EXPECT_LE(total, budget);
}

TEST(Parallelism, ThrowsWhenInfeasible) {
  const WorkloadMix mix = smallMix(32, 7);
  if (mix.totalMinThreads() > 1) {
    EXPECT_THROW(chooseParallelism(mix, mix.totalMinThreads() - 1), Error);
  }
}

TEST(Parallelism, RunnableThreadsCarryScaledFmin) {
  const WorkloadMix mix = smallMix(16, 9);
  const auto kMax = chooseParallelism(mix, 64);
  const auto threads = runnableThreads(mix, kMax);
  int expected = 0;
  for (int kj : kMax) expected += kj;
  EXPECT_EQ(static_cast<int>(threads.size()), expected);
  for (const RunnableThread& t : threads) {
    EXPECT_GT(t.minFrequency, 0.0);
    EXPECT_GT(t.averagePower, 0.0);
    EXPECT_GT(t.averageDuty, 0.0);
  }
}

// --- ThermalPredictor ---------------------------------------------------------

class PredictorFixture : public ::testing::Test {
 protected:
  PredictorFixture() : system_(System::create(smallConfig(), 2015)) {}
  System system_;
};

TEST_F(PredictorFixture, MatchesCoupledGroundTruth) {
  const ThermalPredictor predictor(system_.thermal(), system_.leakage(), 5);
  const int n = system_.chip().coreCount();
  Vector dyn(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> on(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; i += 2) {
    dyn[static_cast<std::size_t>(i)] = 3.0;
    on[static_cast<std::size_t>(i)] = true;
  }
  const Vector predicted = predictor.predict(dyn, on);
  const CoupledOperatingPoint truth = solveCoupledSteadyState(
      system_.thermal(), system_.leakage(), dyn, on);
  // Superposition + a few leakage sweeps should be within ~1 K of the
  // fully converged coupled solve.
  EXPECT_LT(maxAbsDiff(predicted, truth.coreTemperatures), 1.0);
}

TEST_F(PredictorFixture, CandidateDeltaMatchesFullPrediction) {
  const ThermalPredictor predictor(system_.thermal(), system_.leakage());
  const int n = system_.chip().coreCount();
  Vector dyn(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> on(static_cast<std::size_t>(n), false);
  dyn[0] = 4.0;
  on[0] = true;
  const auto baseline = predictor.makeBaseline(dyn, on);
  const Vector incremental = predictor.predictWithCandidate(baseline, 5, 3.5);

  Vector dyn2 = dyn;
  std::vector<bool> on2 = on;
  dyn2[5] = 3.5;
  on2[5] = true;
  const Vector full = predictor.predict(dyn2, on2);
  // The incremental path skips the final leakage re-sweep; allow ~1.5 K.
  EXPECT_LT(maxAbsDiff(incremental, full), 1.5);
}

TEST_F(PredictorFixture, CandidateOnlyWarms) {
  const ThermalPredictor predictor(system_.thermal(), system_.leakage());
  const int n = system_.chip().coreCount();
  const auto baseline = predictor.makeBaseline(
      Vector(static_cast<std::size_t>(n), 0.0),
      std::vector<bool>(static_cast<std::size_t>(n), false));
  const Vector with = predictor.predictWithCandidate(baseline, 7, 5.0);
  for (int i = 0; i < n; ++i)
    EXPECT_GE(with[static_cast<std::size_t>(i)],
              baseline.temperatures[static_cast<std::size_t>(i)]);
  // Candidate core warms the most.
  const auto hottestDelta = static_cast<std::size_t>(7);
  for (int i = 0; i < n; ++i) {
    if (i == 7) continue;
    EXPECT_LT(with[static_cast<std::size_t>(i)] -
                  baseline.temperatures[static_cast<std::size_t>(i)],
              with[hottestDelta] - baseline.temperatures[hottestDelta]);
  }
}

TEST_F(PredictorFixture, FusedCandidateStatsBitwiseMatchUnfused) {
  const ThermalPredictor predictor(system_.thermal(), system_.leakage());
  const int n = system_.chip().coreCount();
  Vector dyn(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> on(static_cast<std::size_t>(n), false);
  dyn[0] = 4.0;
  on[0] = true;
  dyn[3] = 2.5;
  on[3] = true;
  const auto baseline = predictor.makeBaseline(dyn, on);
  for (int cand : {1, 5, n - 1}) {
    const double addedPower = 3.5 + 0.25 * cand;
    const double peakPower = addedPower * 1.4;
    // The unfused sequence the policy loop used to run: two incremental
    // predictions plus the tSum / tMax reductions.
    Vector tNext;
    Vector tPeak;
    predictor.predictWithCandidateInto(baseline, cand, addedPower, tNext);
    predictor.predictWithCandidateInto(baseline, cand, peakPower, tPeak);
    double tMax = 0.0;
    double tSum = 0.0;
    for (double temp : tNext) tSum += temp;
    for (double temp : tPeak) tMax = std::max(tMax, temp);

    const testref::CandidateStats stats = testref::candidateStats(
        predictor, system_.leakage(), baseline, cand, addedPower, peakPower);
    // sumNext is closed-form since §3.11 (baseline sum + delta * column
    // sum) — algebraically equal to the elementwise chain but summed in
    // a different association, so it gets a tight relative tolerance
    // instead of a bitwise pin.
    EXPECT_NEAR(stats.sumNext, tSum, 1e-9 * std::abs(tSum));
    EXPECT_EQ(stats.maxPeak, tMax);  // bitwise: max is order-independent
    EXPECT_EQ(stats.candidateNext, tNext[static_cast<std::size_t>(cand)]);
  }
}

// --- HealthEstimator ------------------------------------------------------------

TEST(DutyPolicyResolve, Modes) {
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::Generic, 0.7), 0.5);
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::Known, 0.7), 0.7);
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::WorstCase, 0.7), 0.925);
  // Idle cores never age, whatever the mode.
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::Generic, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::WorstCase, 0.0), 0.0);
}

TEST_F(PredictorFixture, EstimatorMatchesGroundTruthAging) {
  const Chip& chip = system_.chip();
  const HealthEstimator estimator(chip.agingTable(), DutyPolicy::Known);
  CoreAgingState truth;
  CoreAgingState copy;
  // After a varied history, the estimator's one-epoch forecast must match
  // the actual table-driven advance.
  truth.advance(chip.agingTable(), 350.0, 0.5, 1.0);
  copy = truth;
  const double predicted =
      estimator.estimateNextHealth(copy, 360.0, 0.7, 0.25);
  truth.advance(chip.agingTable(), 360.0, 0.7, 0.25);
  EXPECT_NEAR(predicted, truth.health(), 1e-9);
}

TEST_F(PredictorFixture, EstimatorOrderings) {
  const Chip& chip = system_.chip();
  const HealthEstimator estimator(chip.agingTable(), DutyPolicy::Known);
  const CoreAgingState fresh;
  const double cool = estimator.estimateNextHealth(fresh, 330.0, 0.5, 1.0);
  const double hot = estimator.estimateNextHealth(fresh, 390.0, 0.5, 1.0);
  EXPECT_GT(cool, hot);
  const double lowDuty = estimator.estimateNextHealth(fresh, 360.0, 0.2, 1.0);
  const double highDuty = estimator.estimateNextHealth(fresh, 360.0, 0.9, 1.0);
  EXPECT_GT(lowDuty, highDuty);
  // WorstCase mode is the most pessimistic.
  const HealthEstimator worst(chip.agingTable(), DutyPolicy::WorstCase);
  EXPECT_LE(worst.estimateNextHealth(fresh, 360.0, 0.5, 1.0),
            estimator.estimateNextHealth(fresh, 360.0, 0.5, 1.0));
}

TEST_F(PredictorFixture, EstimatorIdleCoreKeepsHealth) {
  const HealthEstimator estimator(system_.chip().agingTable());
  const CoreAgingState s = CoreAgingState::fromDelayFactor(1.08);
  EXPECT_DOUBLE_EQ(estimator.estimateNextHealth(s, 380.0, 0.0, 1.0),
                   s.health());
}

TEST_F(PredictorFixture, EstimatorWholeMap) {
  const Chip& chip = system_.chip();
  const HealthEstimator estimator(chip.agingTable());
  const int n = chip.coreCount();
  const std::vector<double> temps(static_cast<std::size_t>(n), 350.0);
  std::vector<double> duty(static_cast<std::size_t>(n), 0.0);
  duty[3] = 0.8;
  const auto next = estimator.estimateNextHealthMap(chip.health(), temps,
                                                    duty, 0.5);
  for (int i = 0; i < n; ++i) {
    if (i == 3)
      EXPECT_LT(next[static_cast<std::size_t>(i)], 1.0);
    else
      EXPECT_DOUBLE_EQ(next[static_cast<std::size_t>(i)], 1.0);
  }
}

// --- DTM --------------------------------------------------------------------

class DtmFixture : public ::testing::Test {
 protected:
  DtmFixture() : health_({3e9, 3e9, 3e9, 2e9}) {}
  HealthMap health_;
};

TEST_F(DtmFixture, MigratesHotToColdestEligible) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 2.5e9);
  // Core 0 hot; cores 1-3 idle. Coldest is core 3 but it is too slow
  // (fmax 2 GHz < required 2.5 GHz) -> target must be core 2.
  const Vector temps = {370.0, 356.0, 350.0, 340.0};
  const int actions = dtm.enforce(m, temps, health_);
  EXPECT_EQ(actions, 1);
  EXPECT_FALSE(m.coreBusy(0));
  EXPECT_TRUE(m.coreBusy(2));
  EXPECT_EQ(dtm.stats().migrations, 1);
}

TEST_F(DtmFixture, ThrottlesWhenNoTargetEligible) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 2.5e9);
  // All idle cores are within the 10 K margin of Tsafe -> no migration.
  const Vector temps = {370.0, 365.0, 364.0, 366.0};
  dtm.enforce(m, temps, health_);
  EXPECT_TRUE(m.coreBusy(0));
  EXPECT_LT(m.onCore(0)->frequency, 2.5e9);
  EXPECT_EQ(dtm.stats().throttles, 1);
}

TEST_F(DtmFixture, RestoresAfterCooling) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 2.5e9);
  dtm.enforce(m, {370.0, 365.0, 364.0, 366.0}, health_);  // throttle
  ASSERT_LT(m.onCore(0)->frequency, 2.5e9);
  dtm.enforce(m, {340.0, 330.0, 330.0, 330.0}, health_);  // cooled
  EXPECT_DOUBLE_EQ(m.onCore(0)->frequency, 2.5e9);
  EXPECT_EQ(dtm.stats().restores, 1);
}

TEST_F(DtmFixture, NoActionBelowTsafe) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 2.0e9);
  EXPECT_EQ(dtm.enforce(m, {360.0, 330.0, 330.0, 330.0}, health_), 0);
  EXPECT_EQ(dtm.stats().events(), 0);
}

TEST_F(DtmFixture, HottestMigratesFirst) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 1.5e9);
  m.assign({0, 1}, 1, 1.5e9);
  // Both hot, one cold target (core 3, fmax 2 GHz >= 1.5 GHz).
  // Hotter core 1 must win the target.
  const Vector temps = {369.0, 373.0, 367.0, 340.0};
  dtm.enforce(m, temps, health_);
  ASSERT_TRUE(m.coreBusy(3));
  EXPECT_EQ(m.onCore(3)->ref.thread, 1);
}

TEST_F(DtmFixture, MigrationCooldownForcesThrottle) {
  DtmConfig cfg;
  cfg.migrationCooldownChecks = 100;  // effectively permanent for the test
  DtmManager dtm(cfg);
  Mapping m(4);
  m.assign({0, 0}, 0, 1.5e9);
  const Vector hot0 = {370.0, 330.0, 330.0, 330.0};
  dtm.enforce(m, hot0, health_);  // first emergency: migrates (to core 1)
  EXPECT_EQ(dtm.stats().migrations, 1);
  ASSERT_TRUE(m.coreBusy(1));
  // Immediate second emergency on the new core: the thread is inside its
  // cooldown, so the DTM must throttle instead of migrating again.
  const Vector hot1 = {330.0, 370.0, 330.0, 330.0};
  dtm.enforce(m, hot1, health_);
  EXPECT_EQ(dtm.stats().migrations, 1);
  EXPECT_EQ(dtm.stats().throttles, 1);
  EXPECT_TRUE(m.coreBusy(1));
  EXPECT_LT(m.onCore(1)->frequency, 1.5e9);
}

TEST_F(DtmFixture, CooldownExpiresAfterEnoughChecks) {
  DtmConfig cfg;
  cfg.migrationCooldownChecks = 3;
  DtmManager dtm(cfg);
  Mapping m(4);
  m.assign({0, 0}, 0, 1.5e9);
  dtm.enforce(m, {370.0, 330.0, 330.0, 330.0}, health_);  // migrate 0 -> 1
  ASSERT_EQ(dtm.stats().migrations, 1);
  // Two quiet checks let the cooldown lapse.
  dtm.enforce(m, {330.0, 340.0, 330.0, 330.0}, health_);
  dtm.enforce(m, {330.0, 340.0, 330.0, 330.0}, health_);
  dtm.enforce(m, {330.0, 370.0, 330.0, 330.0}, health_);  // migrate again
  EXPECT_EQ(dtm.stats().migrations, 2);
}

TEST_F(DtmFixture, ThrottleRespectsFloor) {
  DtmConfig cfg;
  cfg.minimumFrequency = 1.0e9;
  DtmManager dtm(cfg);
  Mapping m(1);
  m.assign({0, 0}, 0, 1.2e9);
  HealthMap h1({3e9});
  dtm.enforce(m, {380.0}, h1);
  EXPECT_DOUBLE_EQ(m.onCore(0)->frequency, 1.0e9);
  // At the floor, a further emergency cannot throttle more.
  const long throttlesBefore = dtm.stats().throttles;
  dtm.enforce(m, {380.0}, h1);
  EXPECT_EQ(dtm.stats().throttles, throttlesBefore);
}

// --- EpochSimulator --------------------------------------------------------------

class EpochFixture : public ::testing::Test {
 protected:
  EpochFixture() : system_(System::create(smallConfig(), 77)) {}

  Mapping spreadMapping(const WorkloadMix& mix) {
    const auto k = chooseParallelism(mix, 8);
    const auto threads = runnableThreads(mix, k);
    Mapping m(16);
    const int order[] = {0, 2, 5, 7, 8, 10, 13, 15, 1, 3, 4, 6, 9, 11, 12, 14};
    int idx = 0;
    for (const RunnableThread& t : threads) {
      const int core = order[idx++ % 16];
      m.assign(t.ref, core,
               std::min(t.minFrequency, system_.chip().currentFmax(core)),
               t.minFrequency);
    }
    return m;
  }

  System system_;
};

TEST_F(EpochFixture, ResultShapesAndBounds) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.5;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const EpochResult r = sim.run(spreadMapping(mix), mix);
  const int n = system_.chip().coreCount();
  EXPECT_EQ(static_cast<int>(r.averageTemperature.size()), n);
  EXPECT_EQ(r.totalSteps, static_cast<int>(std::lround(0.5 / 6.6e-3)));
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    EXPECT_GT(r.averageTemperature[s], 300.0);
    EXPECT_LE(r.averageTemperature[s], r.peakTemperature[s] + 1e-9);
    EXPECT_GE(r.duty[s], 0.0);
    EXPECT_LE(r.duty[s], 1.0);
  }
  EXPECT_GE(r.chipPeak, r.chipTimeAverage);
}

TEST_F(EpochFixture, BusyCoresAccumulateDutyIdleCoresDoNot) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.3;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const Mapping m = spreadMapping(mix);
  const EpochResult r = sim.run(m, mix);
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<std::size_t>(i);
    // DTM may move threads, so check against the *final* mapping.
    if (r.finalMapping.coreBusy(i)) {
      EXPECT_GT(r.duty[s] + 1e-9, 0.0);
    }
  }
  // At least one idle core must exist and have zero duty (8 threads, 16
  // cores, and DTM only swaps one-for-one).
  bool sawIdleZero = false;
  for (int i = 0; i < 16; ++i)
    if (!r.finalMapping.coreBusy(i) &&
        r.duty[static_cast<std::size_t>(i)] == 0.0)
      sawIdleZero = true;
  EXPECT_TRUE(sawIdleZero);
}

TEST_F(EpochFixture, BusyCoresRunHotterThanIdle) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.3;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const Mapping m = spreadMapping(mix);
  const EpochResult r = sim.run(m, mix);
  double busyAvg = 0.0, idleAvg = 0.0;
  int busy = 0, idle = 0;
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<std::size_t>(i);
    if (m.coreBusy(i)) {
      busyAvg += r.averageTemperature[s];
      ++busy;
    } else {
      idleAvg += r.averageTemperature[s];
      ++idle;
    }
  }
  ASSERT_GT(busy, 0);
  ASSERT_GT(idle, 0);
  EXPECT_GT(busyAvg / busy, idleAvg / idle);
}

TEST_F(EpochFixture, ThroughputAccounting) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.2;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const EpochResult r = sim.run(spreadMapping(mix), mix);
  EXPECT_GT(r.requiredIps, 0.0);
  EXPECT_GT(r.achievedIps, 0.0);
  EXPECT_LE(r.throughputRatio(), 1.0 + 1e-9);
  EXPECT_GT(r.throughputRatio(), 0.3);
}

TEST_F(EpochFixture, ThermalSensorNoiseKeepsTrueAccounting) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.2;
  EpochConfig noisy = ec;
  noisy.thermalSensorNoise.gaussianSigma = 1.0;
  const EpochSimulator clean(system_.chip(), system_.thermal(),
                             system_.leakage(), ec);
  const EpochSimulator withNoise(system_.chip(), system_.thermal(),
                                 system_.leakage(), noisy);
  const Mapping m = spreadMapping(mix);
  const EpochResult a = clean.run(m, mix);
  const EpochResult b = withNoise.run(m, mix);
  // Reported temperatures are ground truth in both cases; with no DTM
  // activity the trajectories must match exactly.
  if (a.dtm.events() == 0 && b.dtm.events() == 0) {
    EXPECT_LT(maxAbsDiff(a.averageTemperature, b.averageTemperature), 1e-9);
  }
  // And the noisy run still satisfies basic bounds.
  for (double t : b.peakTemperature) EXPECT_LT(t, 500.0);
}

TEST_F(EpochFixture, SteadyStateStepLoopIsAllocationFree) {
  if (!allocCounterActive()) {
    GTEST_SKIP() << "allocation counter compiled out (sanitizer build)";
  }
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.3;
  // Keep DTM quiescent: a triggered migration legitimately allocates
  // (mapping churn), but the steady-state contract is about the step
  // loop itself.
  ec.dtm.tsafe = 1000.0;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const Mapping m = spreadMapping(mix);
  const std::uint64_t before = epochStepLoopAllocs();
  const EpochResult r = sim.run(m, mix);
  EXPECT_GT(r.totalSteps, 1);
  EXPECT_EQ(epochStepLoopAllocs() - before, 0u)
      << "steady-state epoch step loop performed heap allocations";
}

TEST_F(EpochFixture, PhaseRunsMatchPerStepLookups) {
  // The step loop looks a thread's phase up once per phase run rather
  // than once per step, bracketing each run by search.  Short traces
  // that wrap inside the window must still account every step's own
  // phaseAt bytes.  Thread 0's long first phase lets a search probe jump
  // past its two short phases into the next period's first phase (step
  // 31, one period-offset below the run's start at step 16): the probe
  // matches by phase, and only its fallen offset shows the wrap.
  const std::vector<std::vector<Seconds>> durations = {
      {0.09, 0.006, 0.006}, {0.013, 0.029, 0.007}, {0.0066, 0.0066}, {1.0}};
  std::vector<ThreadProfile> threads;
  for (std::size_t k = 0; k < durations.size(); ++k) {
    std::vector<ThreadPhase> phases;
    for (std::size_t j = 0; j < durations[k].size(); ++j) {
      ThreadPhase p;
      p.duration = durations[k][j];
      p.dynamicPower = 1.0 + 0.5 * static_cast<double>(j);
      p.dutyCycle = 0.1 + 0.2 * static_cast<double>(j);
      p.ipc = 0.5 + 0.25 * static_cast<double>(j) + 0.1 * static_cast<double>(k);
      phases.push_back(p);
    }
    threads.emplace_back(std::move(phases), 1.0e9);
  }
  WorkloadMix mix;
  mix.applications.emplace_back("phased", threads, 1);
  const int cores[] = {0, 5, 10, 15};
  Mapping m(16);
  for (int k = 0; k < 4; ++k) m.assign({0, k}, cores[k], 1.0e9);

  EpochConfig ec;
  ec.window = 1.0;
  ec.dtm.tsafe = 1000.0;  // no DTM: each thread stays on its core
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const EpochResult r = sim.run(m, mix);
  ASSERT_EQ(r.dtm.events(), 0);

  std::vector<double> duty(4, 0.0);
  double ips = 0.0;
  for (int s = 0; s < r.totalSteps; ++s)
    for (int k = 0; k < 4; ++k) {
      const ThreadPhase& p = threads[static_cast<std::size_t>(k)].phaseAt(
          s * ec.step);
      duty[static_cast<std::size_t>(k)] += p.dutyCycle;
      ips += p.ipc * 1.0e9;
    }
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int k = 0; k < 4; ++k)
    EXPECT_EQ(bits(r.duty[static_cast<std::size_t>(cores[k])]),
              bits(duty[static_cast<std::size_t>(k)] / r.totalSteps))
        << "thread " << k;
  EXPECT_EQ(bits(r.achievedIps), bits(ips / r.totalSteps));
}

TEST_F(EpochFixture, HealthAdvanceAllIsAllocationFree) {
  if (!allocCounterActive()) {
    GTEST_SKIP() << "allocation counter compiled out (sanitizer build)";
  }
  const int n = system_.chip().coreCount();
  std::vector<double> temps(static_cast<std::size_t>(n));
  std::vector<double> duty(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    temps[static_cast<std::size_t>(i)] = 330.0 + 4.0 * i;
    duty[static_cast<std::size_t>(i)] = i % 3 == 0 ? 0.0 : 0.4 + 0.03 * i;
  }
  HealthMap& hm = system_.chip().health();
  const std::uint64_t before = healthAdvanceAllocs();
  for (int e = 0; e < 4; ++e)
    hm.advanceAll(system_.chip().agingTable(), temps.data(), duty.data(),
                  0.25);
  EXPECT_EQ(healthAdvanceAllocs() - before, 0u)
      << "batched health advance performed heap allocations";
  for (int i = 0; i < n; ++i) {
    if (duty[static_cast<std::size_t>(i)] > 0.0) {
      EXPECT_GT(hm.state(i).delayFactor(), 1.0);
    } else {
      EXPECT_DOUBLE_EQ(hm.state(i).delayFactor(), 1.0);
    }
  }
}

TEST_F(EpochFixture, HayatPlacementLoopIsAllocationFree) {
  if (!allocCounterActive()) {
    GTEST_SKIP() << "allocation counter compiled out (sanitizer build)";
  }
  const WorkloadMix mix = smallMix(8, 5);
  HayatPolicy policy;
  PolicyContext ctx;
  ctx.chip = &system_.chip();
  ctx.thermal = &system_.thermal();
  ctx.leakage = &system_.leakage();
  ctx.mix = &mix;
  (void)policy.map(ctx);  // warm-up: sizes the reusable scratch buffers
  const std::uint64_t before = hayatPlacementLoopAllocs();
  (void)policy.map(ctx);
  EXPECT_EQ(hayatPlacementLoopAllocs() - before, 0u)
      << "warm Hayat candidate loop performed heap allocations";
}

TEST_F(EpochFixture, DeterministicRuns) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.2;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const Mapping m = spreadMapping(mix);
  const EpochResult a = sim.run(m, mix);
  const EpochResult b = sim.run(m, mix);
  EXPECT_EQ(a.dtm.events(), b.dtm.events());
  EXPECT_DOUBLE_EQ(a.chipPeak, b.chipPeak);
  EXPECT_LT(maxAbsDiff(a.averageTemperature, b.averageTemperature), 1e-12);
}

// --- Window bytes ------------------------------------------------------------

void expectEpochResultsBitwiseEqual(const EpochResult& a, const EpochResult& b,
                                    const char* label) {
  ASSERT_EQ(a.averageTemperature.size(), b.averageTemperature.size()) << label;
  for (std::size_t i = 0; i < a.averageTemperature.size(); ++i) {
    EXPECT_EQ(a.averageTemperature[i], b.averageTemperature[i])
        << label << " avg core " << i;
    EXPECT_EQ(a.peakTemperature[i], b.peakTemperature[i])
        << label << " peak core " << i;
    EXPECT_EQ(a.duty[i], b.duty[i]) << label << " duty core " << i;
  }
  EXPECT_EQ(a.chipPeak, b.chipPeak) << label;
  EXPECT_EQ(a.chipTimeAverage, b.chipTimeAverage) << label;
  EXPECT_EQ(a.dtm.migrations, b.dtm.migrations) << label;
  EXPECT_EQ(a.dtm.throttles, b.dtm.throttles) << label;
  EXPECT_EQ(a.dtm.restores, b.dtm.restores) << label;
  EXPECT_EQ(a.throttledSteps, b.throttledSteps) << label;
  EXPECT_EQ(a.totalSteps, b.totalSteps) << label;
  EXPECT_EQ(a.achievedIps, b.achievedIps) << label;
  EXPECT_EQ(a.requiredIps, b.requiredIps) << label;
  ASSERT_EQ(a.finalMapping.coreCount(), b.finalMapping.coreCount()) << label;
  for (int c = 0; c < a.finalMapping.coreCount(); ++c) {
    const auto& sa = a.finalMapping.onCore(c);
    const auto& sb = b.finalMapping.onCore(c);
    ASSERT_EQ(sa.has_value(), sb.has_value()) << label << " core " << c;
    if (!sa.has_value()) continue;
    EXPECT_EQ(sa->ref.app, sb->ref.app) << label << " core " << c;
    EXPECT_EQ(sa->ref.thread, sb->ref.thread) << label << " core " << c;
    EXPECT_EQ(sa->frequency, sb->frequency) << label << " core " << c;
    EXPECT_EQ(sa->requiredFrequency, sb->requiredFrequency)
        << label << " core " << c;
  }
}

SystemConfig gridConfig(int edge) {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(edge, edge);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  return sc;
}

Mapping scatterMapping(const WorkloadMix& mix, const Chip& chip,
                       int onBudget) {
  const auto k = chooseParallelism(mix, onBudget);
  const auto threads = runnableThreads(mix, k);
  const int n = chip.coreCount();
  Mapping m(n);
  int idx = 0;
  for (const RunnableThread& t : threads) {
    const int core =
        static_cast<int>((static_cast<long>(idx) * n) /
                         static_cast<long>(threads.size()));
    m.assign(t.ref, core, std::min(t.minFrequency, chip.currentFmax(core)),
             t.minFrequency);
    ++idx;
  }
  return m;
}

/// A mix whose threads hold one constant phase forever: the window
/// settles onto its steady state early.
WorkloadMix steadyMix(int threads) {
  std::vector<ThreadProfile> profiles;
  for (int t = 0; t < threads; ++t)
    profiles.emplace_back(
        std::vector<ThreadPhase>{{1.0, 3.0 + 0.25 * t, 0.5, 1.0}}, 2.0e9);
  WorkloadMix mix;
  mix.applications.emplace_back("steady", std::move(profiles), 1);
  return mix;
}

std::uint64_t fnvAppend(std::uint64_t h, double v) {
  char buf[40];
  const int len = std::snprintf(buf, sizeof buf, "%.17g;", v);
  for (int i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(buf[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over the %.17g bytes of every EpochResult field, final mapping
/// included.
std::uint64_t windowDigest(const EpochResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (double v : r.averageTemperature) h = fnvAppend(h, v);
  for (double v : r.peakTemperature) h = fnvAppend(h, v);
  for (double v : r.duty) h = fnvAppend(h, v);
  h = fnvAppend(h, r.chipPeak);
  h = fnvAppend(h, r.chipTimeAverage);
  h = fnvAppend(h, static_cast<double>(r.dtm.migrations));
  h = fnvAppend(h, static_cast<double>(r.dtm.throttles));
  h = fnvAppend(h, static_cast<double>(r.dtm.restores));
  h = fnvAppend(h, r.throttledSteps);
  h = fnvAppend(h, r.totalSteps);
  h = fnvAppend(h, r.achievedIps);
  h = fnvAppend(h, r.requiredIps);
  for (int c = 0; c < r.finalMapping.coreCount(); ++c) {
    const auto& slot = r.finalMapping.onCore(c);
    h = fnvAppend(h, slot.has_value() ? 1.0 : 0.0);
    if (!slot.has_value()) continue;
    h = fnvAppend(h, slot->ref.app);
    h = fnvAppend(h, slot->ref.thread);
    h = fnvAppend(h, slot->frequency);
    h = fnvAppend(h, slot->requiredFrequency);
  }
  return h;
}

// The digests were recorded from the full step-by-step reference path
// (trajectory memo and fixed-point early exit both off) before those two
// fast paths were removed, and both fast paths reproduced them.  A change
// to any window byte — temperatures, duty, DTM counts, throughput, final
// mapping — shows here.
TEST(EpochSimulator, WindowBytesArePinned) {
  struct Window {
    const char* label;
    std::uint64_t digest;
  };
  const auto check = [](const Window& w, const EpochSimulator& sim,
                        const Mapping& m, const WorkloadMix& mix) {
    const EpochResult r = sim.run(m, mix);
    EXPECT_EQ(windowDigest(r), w.digest) << w.label;
    return r;
  };
  // Scatter windows across sizes (0.3 s); 16x16 runs the DTM hard.
  const Window scatter[] = {{"4x4", 0x3ad74a96ffd20351ull},
                            {"8x8", 0x38fff7173fdcfc11ull},
                            {"16x16", 0x71fcad9cbb512671ull}};
  for (const int edge : {4, 8, 16}) {
    System system = System::create(gridConfig(edge), 77);
    const WorkloadMix mix = smallMix(std::max(4, edge * edge / 2), 5);
    EpochConfig ec;
    ec.window = 0.3;
    const EpochSimulator sim(system.chip(), system.thermal(),
                             system.leakage(), ec);
    check(scatter[edge == 4 ? 0 : edge == 8 ? 1 : 2], sim,
          scatterMapping(mix, system.chip(), edge * edge / 2), mix);
  }
  {
    // The dense reference backend gives the banded default's bytes.
    ThermalModel::clearSharedTransientCacheForTest();
    SystemConfig dense = gridConfig(4);
    dense.thermal.solver = RcSolver::Mode::Dense;
    System system = System::create(dense, 77);
    const WorkloadMix mix = smallMix(8, 5);
    EpochConfig ec;
    ec.window = 0.3;
    const EpochSimulator sim(system.chip(), system.thermal(),
                             system.leakage(), ec);
    check({"dense 4x4", 0x3ad74a96ffd20351ull}, sim,
          scatterMapping(mix, system.chip(), 8), mix);
    ThermalModel::clearSharedTransientCacheForTest();
  }
  {
    // Constant power over the default 2 s window.
    System system = System::create(gridConfig(4), 77);
    const WorkloadMix mix = steadyMix(4);
    const EpochSimulator sim(system.chip(), system.thermal(),
                             system.leakage(), EpochConfig{});
    const EpochResult r = check({"steady 2 s", 0xbd39262e6645e0e3ull}, sim,
                                scatterMapping(mix, system.chip(), 4), mix);
    EXPECT_EQ(r.dtm.events(), 0);
  }
  {
    // A low Tsafe makes the DTM migrate and throttle.
    System system = System::create(gridConfig(4), 77);
    const WorkloadMix mix = smallMix(8, 5);
    EpochConfig ec;
    ec.window = 0.3;
    ec.dtm.tsafe = 340.0;
    const EpochSimulator sim(system.chip(), system.thermal(),
                             system.leakage(), ec);
    const EpochResult r = check({"dtm active", 0x5aa89a4df1a27454ull}, sim,
                                scatterMapping(mix, system.chip(), 8), mix);
    EXPECT_GT(r.dtm.events(), 0);
    // The step loop reuses each core's phase in the accounting unless
    // the DTM migrated a thread in that step; a migration here makes a
    // stale reuse change this window's digest.
    EXPECT_GT(r.dtm.migrations, 0);
  }
  {
    // Noisy sensors near Tsafe: the DTM reacts to the noisy readings and
    // also restores.
    System system = System::create(gridConfig(4), 77);
    const WorkloadMix mix = smallMix(8, 5);
    EpochConfig ec;
    ec.window = 0.3;
    ec.dtm.tsafe = 335.0;
    ec.thermalSensorNoise.gaussianSigma = 1.0;
    ec.thermalSensorNoise.quantization = 0.5;
    const EpochSimulator sim(system.chip(), system.thermal(),
                             system.leakage(), ec);
    const EpochResult r = check({"noisy sensors", 0x01b52e9a2ee0f7c5ull}, sim,
                                scatterMapping(mix, system.chip(), 8), mix);
    EXPECT_GT(r.dtm.restores, 0);
  }
}

TEST(EpochSimulator, ConcurrentRunsMatchSerial) {
  System system = System::create(gridConfig(4), 77);
  const WorkloadMix mixA = smallMix(8, 5);
  const WorkloadMix mixB = smallMix(8, 9);
  EpochConfig ec;
  ec.window = 0.2;
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           ec);
  const Mapping mA = scatterMapping(mixA, system.chip(), 8);
  const Mapping mB = scatterMapping(mixB, system.chip(), 8);
  const EpochResult refA = sim.run(mA, mixA);
  const EpochResult refB = sim.run(mB, mixB);
  std::vector<std::thread> workers;
  std::vector<std::pair<bool, EpochResult>> results;
  std::mutex resultsMutex;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int iter = 0; iter < 3; ++iter) {
        const bool useA = (w + iter) % 2 == 0;
        EpochResult r = sim.run(useA ? mA : mB, useA ? mixA : mixB);
        std::lock_guard<std::mutex> lock(resultsMutex);
        results.emplace_back(useA, std::move(r));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  ASSERT_EQ(results.size(), 12u);
  for (const auto& [isA, r] : results)
    expectEpochResultsBitwiseEqual(isA ? refA : refB, r, "concurrent");
}

}  // namespace
}  // namespace hayat
