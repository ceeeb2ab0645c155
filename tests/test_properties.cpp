// Randomized cross-module property tests.
//
// Each suite is parameterized over seeds and asserts invariants that must
// hold for *any* chip / workload / policy combination — the safety net
// under every physical and algorithmic module at once:
//
//   * epoch simulation: temperatures bounded, duty in [0,1], DTM
//     conservation (threads are never lost), determinism;
//   * lifetime simulation: health monotone, frequencies within physical
//     bounds, epoch accounting consistent;
//   * policies: structural constraints for random mixes and random
//     degrees of prior aging;
//   * predictor: bounded error against the coupled ground truth across
//     random power patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/simple_policies.hpp"
#include "baselines/vaa.hpp"
#include "common/error.hpp"
#include "common/statistics.hpp"
#include "core/hayat_policy.hpp"
#include "core/lifetime.hpp"
#include "core/system.hpp"
#include "failure/wearout.hpp"
#include "power/thermal_coupling.hpp"
#include "runtime/epoch.hpp"
#include "runtime/thermal_predictor.hpp"
#include "workload/generator.hpp"

namespace hayat {
namespace {

SystemConfig fastConfig() {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(4, 4);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  sc.epoch.window = 0.2;
  return sc;
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, EpochSimulationInvariants) {
  const std::uint64_t seed = GetParam();
  System system = System::create(fastConfig(), seed);
  Rng rng(seed * 31 + 1);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);

  HayatPolicy policy;
  PolicyContext ctx;
  ctx.chip = &system.chip();
  ctx.thermal = &system.thermal();
  ctx.leakage = &system.leakage();
  ctx.mix = &mix;
  ctx.minDarkFraction = 0.5;
  const Mapping mapping = policy.map(ctx);

  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           fastConfig().epoch);
  const EpochResult r = sim.run(mapping, mix);

  const Kelvin ambient = system.thermal().config().ambient;
  for (int i = 0; i < system.chip().coreCount(); ++i) {
    const auto s = static_cast<std::size_t>(i);
    // Temperatures: above ambient (something is always burning), below an
    // absurd physical ceiling.
    EXPECT_GT(r.averageTemperature[s], ambient - 0.5);
    EXPECT_LT(r.peakTemperature[s], 500.0);
    EXPECT_LE(r.averageTemperature[s], r.peakTemperature[s] + 1e-9);
    EXPECT_GE(r.duty[s], 0.0);
    EXPECT_LE(r.duty[s], 1.0);
  }
  // Thread conservation: DTM moves threads but never destroys them.
  EXPECT_EQ(r.finalMapping.assignedCount(), mapping.assignedCount());
  // Every originally-mapped thread still exists somewhere.
  for (const MappedThread& t : mapping.threads()) {
    bool found = false;
    for (const MappedThread& u : r.finalMapping.threads())
      if (u.ref == t.ref) found = true;
    EXPECT_TRUE(found);
  }
}

TEST_P(SeededProperty, LifetimeInvariants) {
  const std::uint64_t seed = GetParam();
  System system = System::create(fastConfig(), seed);
  LifetimeConfig lc;
  lc.horizon = 2.0;
  lc.epochLength = 0.5;
  lc.minDarkFraction = 0.5;
  lc.workloadSeed = seed * 7 + 3;
  HayatPolicy policy;
  const LifetimeResult r = LifetimeSimulator(lc).run(system, policy);

  double prevAvgHealth = 1.0 + 1e-12;
  for (const EpochRecord& e : r.epochs) {
    // Health is monotone non-increasing over epochs and stays in (0, 1].
    EXPECT_LE(e.averageHealth, prevAvgHealth);
    EXPECT_GT(e.minHealth, 0.0);
    EXPECT_LE(e.minHealth, e.averageHealth + 1e-12);
    prevAvgHealth = e.averageHealth;
    // Frequencies within physical bounds.
    EXPECT_GT(e.averageFmax, 0.5e9);
    EXPECT_LE(e.chipFmax, maxOf(r.initialFmax) + 1.0);
    EXPECT_GE(e.chipFmax, e.averageFmax);
    // Accounting sanity.
    EXPECT_EQ(e.dtmEvents, e.migrations + e.throttles);
    EXPECT_GE(e.totalSteps, 1);
    EXPECT_LE(e.throttledSteps, e.totalSteps);
  }
  // Final map equals per-core product of initial fmax and final health.
  for (int i = 0; i < system.chip().coreCount(); ++i) {
    const auto s = static_cast<std::size_t>(i);
    EXPECT_NEAR(r.finalFmax[s],
                r.initialFmax[s] * system.chip().health().health(i), 1.0);
  }
}

TEST_P(SeededProperty, PoliciesSatisfyConstraintsOnAgedSilicon) {
  // Constraint satisfaction must hold on arbitrarily pre-aged chips, not
  // just fresh ones.
  const std::uint64_t seed = GetParam();
  System system = System::create(fastConfig(), seed);
  Chip& chip = system.chip();
  Rng rng(seed * 13 + 5);
  for (int i = 0; i < chip.coreCount(); ++i) {
    chip.health().advance(i, chip.agingTable(), rng.uniform(330.0, 395.0),
                          rng.uniform(0.1, 0.95), rng.uniform(0.0, 8.0));
  }

  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);
  PolicyContext ctx;
  ctx.chip = &chip;
  ctx.thermal = &system.thermal();
  ctx.leakage = &system.leakage();
  ctx.mix = &mix;
  ctx.minDarkFraction = 0.5;

  HayatPolicy hayat;
  VaaPolicy vaa;
  RandomPolicy random(seed);
  for (MappingPolicy* policy :
       std::initializer_list<MappingPolicy*>{&hayat, &vaa, &random}) {
    const Mapping m = policy->map(ctx);
    const DarkCoreMap dcm = m.toDarkCoreMap(chip.grid());
    EXPECT_TRUE(dcm.meetsDarkBudget(0.5)) << policy->name();
    for (const MappedThread& t : m.threads()) {
      EXPECT_LE(t.frequency, chip.currentFmax(t.core) + 1.0)
          << policy->name();
      EXPECT_GT(t.frequency, 0.0) << policy->name();
    }
  }
}

TEST_P(SeededProperty, PredictorBoundedErrorOnRandomPatterns) {
  const std::uint64_t seed = GetParam();
  System system = System::create(fastConfig(), seed);
  const int n = system.chip().coreCount();
  Rng rng(seed * 17 + 9);
  Vector dyn(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> on(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    if (rng.uniform() < 0.5) {
      on[static_cast<std::size_t>(i)] = true;
      dyn[static_cast<std::size_t>(i)] = rng.uniform(0.5, 6.0);
    }
  }
  const ThermalPredictor predictor(system.thermal(), system.leakage(), 3);
  const Vector predicted = predictor.predict(dyn, on);
  const CoupledOperatingPoint truth =
      solveCoupledSteadyState(system.thermal(), system.leakage(), dyn, on);
  ASSERT_TRUE(truth.converged);
  EXPECT_LT(maxAbsDiff(predicted, truth.coreTemperatures), 2.0);
}

TEST_P(SeededProperty, WearoutLifetimeMonotoneInTemperatureAndStress) {
  // Hotter or harder-driven silicon never outlives cooler, lighter
  // silicon: EM and TDDB MTTF are non-increasing in both temperature and
  // stress over random operating points.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 41 + 17);
  const EmModel em;
  const TddbModel tddb;
  for (int trial = 0; trial < 64; ++trial) {
    const Kelvin t = rng.uniform(310.0, 400.0);
    const double stress = rng.uniform(0.05, 1.0);
    const Kelvin hotter = t + rng.uniform(0.1, 30.0);
    const double harder = std::min(1.0, stress + rng.uniform(0.01, 0.5));
    EXPECT_LE(em.mttf(hotter, stress), em.mttf(t, stress));
    EXPECT_LE(em.mttf(t, harder), em.mttf(t, stress));
    EXPECT_LE(tddb.mttf(hotter, stress), tddb.mttf(t, stress));
    EXPECT_LE(tddb.mttf(t, harder), tddb.mttf(t, stress));
    // Damage rate is exactly the reciprocal lifetime.
    EXPECT_DOUBLE_EQ(em.damageRate(t, stress), 1.0 / em.mttf(t, stress));
    EXPECT_DOUBLE_EQ(tddb.damageRate(t, stress), 1.0 / tddb.mttf(t, stress));
  }
}

TEST_P(SeededProperty, WearoutZeroStressIsImmortal) {
  // A permanently dark unit (zero current, zero bias duty) never damages:
  // unbounded lifetime and zero damage rate at any temperature.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 43 + 19);
  const EmModel em;
  const TddbModel tddb;
  for (int trial = 0; trial < 16; ++trial) {
    const Kelvin t = rng.uniform(280.0, 420.0);
    EXPECT_TRUE(std::isinf(em.mttf(t, 0.0)));
    EXPECT_DOUBLE_EQ(em.damageRate(t, 0.0), 0.0);
    EXPECT_TRUE(std::isinf(tddb.mttf(t, 0.0)));
    EXPECT_DOUBLE_EQ(tddb.damageRate(t, 0.0), 0.0);
  }
}

TEST_P(SeededProperty, WearoutAgreesWithClosedFormAtRandomPoints) {
  // The evaluators are the textbook closed forms, nothing more: Black's
  // equation for EM, the power-law voltage model for TDDB.  Recompute
  // both from scratch at random operating points and at randomly drawn
  // model parameters.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 47 + 23);
  constexpr double kBoltzmannEv = 8.617333262e-5;  // [eV/K]

  EmConfig ec;
  ec.activationEnergyEv = rng.uniform(0.6, 1.2);
  ec.currentExponent = rng.uniform(1.0, 3.0);
  ec.referenceMttfYears = rng.uniform(5.0, 40.0);
  ec.referenceTemperature = rng.uniform(330.0, 360.0);
  ec.referenceCurrentFactor = rng.uniform(0.3, 0.8);
  const EmModel em(ec);

  TddbConfig tc;
  tc.activationEnergyEv = rng.uniform(0.6, 0.9);
  tc.voltageExponent = rng.uniform(30.0, 50.0);
  tc.vdd = rng.uniform(0.9, 1.3);
  tc.referenceVdd = rng.uniform(0.9, 1.3);
  tc.referenceMttfYears = rng.uniform(10.0, 40.0);
  tc.referenceTemperature = rng.uniform(330.0, 360.0);
  const TddbModel tddb(tc);

  for (int trial = 0; trial < 32; ++trial) {
    const Kelvin t = rng.uniform(310.0, 400.0);
    const double stress = rng.uniform(0.05, 1.0);
    const double arrheniusEm =
        std::exp(ec.activationEnergyEv / kBoltzmannEv *
                 (1.0 / t - 1.0 / ec.referenceTemperature));
    const double expectedEm =
        ec.referenceMttfYears *
        std::pow(stress / ec.referenceCurrentFactor, -ec.currentExponent) *
        arrheniusEm;
    EXPECT_NEAR(em.mttf(t, stress), expectedEm, expectedEm * 1e-12);

    const double arrheniusTddb =
        std::exp(tc.activationEnergyEv / kBoltzmannEv *
                 (1.0 / t - 1.0 / tc.referenceTemperature));
    const double expectedTddb =
        tc.referenceMttfYears *
        std::pow(tc.vdd / tc.referenceVdd, -tc.voltageExponent) *
        arrheniusTddb / stress;
    EXPECT_NEAR(tddb.mttf(t, stress), expectedTddb, expectedTddb * 1e-12);
  }
}

TEST_P(SeededProperty, AgingOrderPreservation) {
  // A strictly hotter epoch history never yields a healthier core.
  const std::uint64_t seed = GetParam();
  System system = System::create(fastConfig(), seed);
  const AgingTable& table = system.chip().agingTable();
  Rng rng(seed * 23 + 11);
  CoreAgingState cool, hot;
  for (int e = 0; e < 8; ++e) {
    const double duty = rng.uniform(0.2, 0.9);
    const Kelvin t = rng.uniform(325.0, 380.0);
    cool.advance(table, t, duty, 0.25);
    hot.advance(table, t + rng.uniform(1.0, 15.0), duty, 0.25);
    EXPECT_LE(hot.health(), cool.health() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace hayat
