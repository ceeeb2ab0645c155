// Unit-level failure modeling: graph semantics, counter-RNG determinism,
// and the statistical harness pinning the Monte Carlo distributions.
//
// The load-bearing contracts:
//   * FailureGraph folds unit deaths to system death exactly (serial =
//     weakest member, k-of-n survives n-k losses, hand-computed truth
//     table on a 6-node graph);
//   * the distribution export of `hayat mttf --distribution` is
//     byte-identical for a given seed across 1/4/8 engine threads and
//     forked proc:2 workers (counter-based RNG, no draw-order effects);
//   * distribution specs hash apart from their point-MTTF twins, so the
//     result cache can never serve one for the other;
//   * a fixed-seed 4x4 scenario reproduces golden p10/p50/p90, and two
//     disjoint seed ranges agree under a Kolmogorov-Smirnov two-sample
//     test (the sampler draws from one distribution, not one stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "failure/failure_graph.hpp"
#include "failure/monte_carlo.hpp"
#include "failure/wearout.hpp"

namespace hayat {
namespace {

using engine::EngineConfig;
using engine::ExperimentEngine;
using engine::ExperimentSpec;
using engine::RunResult;
using engine::SweepTable;

// ------------------------------------------------------------ failure graph

TEST(FailureGraphTest, SerialChainDiesWithWeakestUnit) {
  FailureGraph g;
  const int a = g.addUnit("a", UnitKind::Core);
  const int b = g.addUnit("b", UnitKind::Core);
  const int c = g.addUnit("c", UnitKind::Core);
  g.setRoot(g.addSerialGroup("chain", {a, b, c}));

  EXPECT_DOUBLE_EQ(g.systemLifetime({5.0, 2.0, 9.0}), 2.0);
  EXPECT_EQ(g.killerUnit({5.0, 2.0, 9.0}), 1);
  EXPECT_DOUBLE_EQ(g.systemLifetime({1.0, 2.0, 9.0}), 1.0);
  EXPECT_EQ(g.killerUnit({1.0, 2.0, 9.0}), 0);
  // A chain of immortal units never dies.
  const std::vector<Years> immortal(3, kUnboundedLifetime);
  EXPECT_TRUE(std::isinf(g.systemLifetime(immortal)));
  EXPECT_EQ(g.killerUnit(immortal), -1);
}

TEST(FailureGraphTest, KofNParallelSurvivesKMinusOneLosses) {
  FailureGraph g;
  std::vector<int> members;
  for (int i = 0; i < 4; ++i)
    members.push_back(g.addUnit("u" + std::to_string(i), UnitKind::Core));
  // 2-of-4: two member deaths are survivable, the third is fatal.
  g.setRoot(g.addParallelGroup("fabric", members, 2));

  EXPECT_DOUBLE_EQ(g.systemLifetime({1.0, 2.0, 3.0, 4.0}), 3.0);
  EXPECT_EQ(g.killerUnit({1.0, 2.0, 3.0, 4.0}), 2);
  // Order independence: the fold sees lifetimes, not indices.
  EXPECT_DOUBLE_EQ(g.systemLifetime({4.0, 3.0, 2.0, 1.0}), 3.0);
  // required == n degenerates to serial...
  FailureGraph serial;
  members.clear();
  for (int i = 0; i < 3; ++i)
    serial.addUnit("s" + std::to_string(i), UnitKind::Core);
  serial.setRoot(serial.addParallelGroup("all", {0, 1, 2}, 3));
  EXPECT_DOUBLE_EQ(serial.systemLifetime({7.0, 5.0, 6.0}), 5.0);
  // ...and required == 1 dies last.
  FailureGraph last;
  for (int i = 0; i < 3; ++i)
    last.addUnit("l" + std::to_string(i), UnitKind::Core);
  last.setRoot(last.addParallelGroup("any", {0, 1, 2}, 1));
  EXPECT_DOUBLE_EQ(last.systemLifetime({7.0, 5.0, 6.0}), 7.0);
}

TEST(FailureGraphTest, SixNodePropagationMatchesHandComputedTruthTable) {
  // Leaves a, b, c, d; pair = 1-of-2(a, b); root = serial(pair, c, d).
  // System death = min(max(a, b), c, d), killer = the leaf realizing it.
  FailureGraph g;
  const int a = g.addUnit("a", UnitKind::Core);
  const int b = g.addUnit("b", UnitKind::Core);
  const int c = g.addUnit("c", UnitKind::SharedCache);
  const int d = g.addUnit("d", UnitKind::Accelerator);
  const int pair = g.addParallelGroup("pair", {a, b}, 1);
  g.setRoot(g.addSerialGroup("system", {pair, c, d}));
  EXPECT_EQ(g.nodeCount(), 6);

  struct Case {
    std::vector<Years> lifetimes;  // a, b, c, d
    Years death;
    int killer;
  };
  const std::vector<Case> table = {
      {{1.0, 2.0, 3.0, 4.0}, 2.0, 1},  // pair dies second (at b)
      {{9.0, 8.0, 3.0, 4.0}, 3.0, 2},  // shared cache first
      {{9.0, 8.0, 7.0, 4.0}, 4.0, 3},  // accelerator first
      {{5.0, 5.0, 9.0, 9.0}, 5.0, 0},  // tie inside the pair: lowest index
      {{1.0, 9.0, 2.0, 3.0}, 2.0, 2},  // pair outlives c thanks to b
      // Immortal pair and cache: the accelerator is the killer.
      {{kUnboundedLifetime, kUnboundedLifetime, kUnboundedLifetime, 6.0},
       6.0,
       3},
  };
  for (const Case& t : table) {
    EXPECT_DOUBLE_EQ(g.systemLifetime(t.lifetimes), t.death);
    EXPECT_EQ(g.killerUnit(t.lifetimes), t.killer);
  }
}

TEST(FailureGraphTest, SocTopologyWiresCoresCacheAndAccelerators) {
  SocFailureTopology topology;
  topology.coreCount = 4;
  topology.minAliveCoreFraction = 0.5;  // 2-of-4 fabric
  topology.acceleratorCount = 1;
  const FailureGraph g = buildSocFailureGraph(topology);
  ASSERT_EQ(g.unitCount(), 6);  // 4 cores + l2 + accel0
  EXPECT_EQ(g.unit(4).kind, UnitKind::SharedCache);
  EXPECT_EQ(g.unit(5).kind, UnitKind::Accelerator);

  // Cores at 1..4, l2 and accel immortal: 2-of-4 dies at the third
  // core death.
  std::vector<Years> lifetimes = {1.0, 2.0, 3.0, 4.0, kUnboundedLifetime,
                                  kUnboundedLifetime};
  EXPECT_DOUBLE_EQ(g.systemLifetime(lifetimes), 3.0);
  // A dead shared L2 is always fatal regardless of the fabric.
  lifetimes[4] = 0.5;
  EXPECT_DOUBLE_EQ(g.systemLifetime(lifetimes), 0.5);
  EXPECT_EQ(g.killerUnit(lifetimes), 4);
  // So is a dead accelerator.
  lifetimes[4] = kUnboundedLifetime;
  lifetimes[5] = 0.25;
  EXPECT_DOUBLE_EQ(g.systemLifetime(lifetimes), 0.25);
  EXPECT_EQ(g.killerUnit(lifetimes), 5);
}

// -------------------------------------------------------------- counter RNG

TEST(CounterRngTest, PureFunctionOfItsCoordinates) {
  EXPECT_EQ(counterU64(1, 2, 3, 4), counterU64(1, 2, 3, 4));
  EXPECT_NE(counterU64(1, 2, 3, 4), counterU64(2, 2, 3, 4));
  EXPECT_NE(counterU64(1, 2, 3, 4), counterU64(1, 3, 3, 4));
  EXPECT_NE(counterU64(1, 2, 3, 4), counterU64(1, 2, 4, 4));
  EXPECT_NE(counterU64(1, 2, 3, 4), counterU64(1, 2, 3, 5));
  for (std::uint64_t s = 0; s < 64; ++s) {
    const double u = counterUniform(7, s, 3, 1);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRngTest, UniformDrawsHaveMeanOneHalf) {
  double sum = 0.0;
  const int n = 4096;
  for (int s = 0; s < n; ++s)
    sum += counterUniform(2015, static_cast<std::uint64_t>(s), 0, 0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// ----------------------------------------------------- Monte Carlo sampling

FailureConfig testFailureConfig(int samples, std::uint64_t seed) {
  FailureConfig config;
  config.samples = samples;
  config.seed = seed;
  return config;
}

/// Synthetic 4-core trajectories: warm cores under partial duty, the L2
/// slightly cooler under full bias.
std::vector<UnitTrajectory> testTrajectories(int epochs) {
  std::vector<UnitTrajectory> units(5);
  for (int u = 0; u < 4; ++u) {
    for (int e = 0; e < epochs; ++e) {
      units[static_cast<std::size_t>(u)].temperature.push_back(
          348.0 + 2.0 * u + 0.5 * e);
      units[static_cast<std::size_t>(u)].stress.push_back(0.4 + 0.1 * u);
    }
  }
  for (int e = 0; e < epochs; ++e) {
    units[4].temperature.push_back(344.0 + 0.25 * e);
    units[4].stress.push_back(1.0);
  }
  return units;
}

FailureMonteCarlo testMonteCarlo(int samples, std::uint64_t seed) {
  SocFailureTopology topology;
  topology.coreCount = 4;
  return FailureMonteCarlo(testFailureConfig(samples, seed),
                           buildSocFailureGraph(topology));
}

TEST(MonteCarloTest, SampleMatchesClosedFormCrossingTime) {
  // The driver's binary-searched crossing must agree bitwise with the
  // reference closed form damageCrossingTime() for the same draw.
  const FailureMonteCarlo mc = testMonteCarlo(16, 42);
  const std::vector<UnitTrajectory> units = testTrajectories(8);
  const Years epochLength = 0.25;
  const EmModel em(mc.config().em);
  const TddbModel tddb(mc.config().tddb);

  const LifetimeDistribution d = mc.run(units, epochLength);
  for (int s = 0; s < 16; ++s) {
    for (int u = 0; u < 5; ++u) {
      for (const bool isTddb : {false, true}) {
        const std::uint64_t sampleKey = static_cast<std::uint64_t>(s);
        const std::uint64_t unitKey = static_cast<std::uint64_t>(u);
        const double draw = counterUniform(42, sampleKey, unitKey,
                                           isTddb ? 1 : 0);
        const double threshold =
            weibullMeanOneQuantile(draw, mc.config().weibullShape);
        std::vector<double> rates;
        const UnitTrajectory& unit = units[static_cast<std::size_t>(u)];
        for (std::size_t e = 0; e < unit.temperature.size(); ++e) {
          double rate = em.damageRate(unit.temperature[e], unit.stress[e]);
          if (isTddb) {
            rate = tddb.damageRate(unit.temperature[e], unit.stress[e]);
          }
          rates.push_back(rate);
        }
        EXPECT_EQ(mc.sampleMechanismLifetime(unit, epochLength, s, u, isTddb),
                  damageCrossingTime(rates, epochLength, threshold));
      }
    }
  }
  // Each sample's system lifetime is bounded by its units' mechanism
  // minima (the graph can only combine, never extend, unit deaths).
  for (const Years life : d.systemLifetimes) EXPECT_GT(life, 0.0);
}

TEST(MonteCarloTest, AccountingIsConsistent) {
  const FailureMonteCarlo mc = testMonteCarlo(128, 7);
  const LifetimeDistribution d = mc.run(testTrajectories(8), 0.25);
  ASSERT_EQ(d.systemLifetimes.size(), 128u);
  ASSERT_EQ(d.units.size(), 5u);

  long kills = 0;
  for (const UnitFailureStats& u : d.units) {
    kills += u.kills;
    // A killer death is in particular a death at-or-before system death.
    EXPECT_GE(u.deaths, u.kills);
  }
  EXPECT_EQ(kills, 128);  // every finite sample has exactly one killer
  EXPECT_EQ(d.emKills + d.tddbKills, 128);

  // Percentiles are monotone and bracket the samples.
  EXPECT_LE(d.percentile(10.0), d.percentile(50.0));
  EXPECT_LE(d.percentile(50.0), d.percentile(90.0));
  EXPECT_DOUBLE_EQ(d.survivalAt(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.survivalAt(d.percentile(100.0)), 0.0);
}

// --------------------------------------------------- engine-level contracts

/// 4x4 single-chip distribution spec, two epochs — the smallest spec that
/// exercises the whole stack (trajectories, graph, cache, wire).
ExperimentSpec distributionSpec(int samples, std::uint64_t seed) {
  ExperimentSpec spec;
  spec.name = "failure-test";
  spec.system.population.coreGrid = {4, 4};
  spec.lifetime.horizon = 0.5;
  spec.lifetime.epochLength = 0.25;
  spec.policies = {{"Hayat", {}}};
  spec.chips = {0, 1};
  spec.darkFractions = {0.5};
  spec.baseSeed = seed;
  spec.lifetime.failure.samples = samples;
  return spec;
}

SweepTable runWith(const ExperimentSpec& spec, int workers,
                   const std::string& dispatch = "") {
  ::unsetenv("HAYAT_DISPATCH");
  EngineConfig config;
  config.workers = workers;
  config.cache = false;
  config.dispatch = dispatch;
  return ExperimentEngine(config).run(spec);
}

/// Canonical distribution bytes of every run — the determinism contract's
/// literal form (what `hayat mttf --distribution --export` writes).
std::string distributionBytes(const SweepTable& table) {
  std::ostringstream out;
  for (const RunResult& r : table.runs) {
    EXPECT_TRUE(r.lifetime.distribution.has_value());
    if (r.lifetime.distribution.has_value())
      writeDistribution(out, *r.lifetime.distribution);
  }
  return out.str();
}

TEST(DistributionDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = distributionSpec(64, 2015);
  const std::string one = distributionBytes(runWith(spec, 1));
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, distributionBytes(runWith(spec, 4)));
  EXPECT_EQ(one, distributionBytes(runWith(spec, 8)));
}

TEST(DistributionDeterminismTest, ByteIdenticalAcrossForkedWorkers) {
  const ExperimentSpec spec = distributionSpec(64, 2015);
  const std::string serial = distributionBytes(runWith(spec, 1));
  EXPECT_EQ(serial, distributionBytes(runWith(spec, 1, "proc:2")));
}

TEST(DistributionCacheTest, SpecHashSeparatesDistributionFromPointRuns) {
  const ExperimentSpec point = distributionSpec(0, 2015);
  const ExperimentSpec dist = distributionSpec(256, 2015);
  const ExperimentSpec bigger = distributionSpec(512, 2015);
  EXPECT_NE(engine::specHash(point), engine::specHash(dist));
  EXPECT_NE(engine::specHash(dist), engine::specHash(bigger));
  // The seed stays out of the hash: distribution runs with different
  // base seeds share a signature only if EVERY hashed knob matches, and
  // baseSeed IS hashed — but failure.seed itself (the derived stream) is
  // not a spec field at all.
  ExperimentSpec reseeded = dist;
  reseeded.lifetime.failure.seed = 0xDEAD;
  EXPECT_EQ(engine::specHash(dist), engine::specHash(reseeded));
}

TEST(DistributionCacheTest, RunRecordRoundTripsDistributionBitExactly) {
  const ExperimentSpec spec = distributionSpec(32, 99);
  const std::vector<engine::RunTask> tasks = ExperimentEngine::expand(spec);
  const RunResult computed =
      ExperimentEngine::runTask(tasks[0], spec.populationSeed);
  ASSERT_TRUE(computed.lifetime.distribution.has_value());

  std::ostringstream encoded;
  engine::writeRunResult(encoded, computed);
  std::istringstream in(encoded.str());
  RunResult decoded;
  ASSERT_TRUE(engine::readRunResult(in, decoded));
  ASSERT_TRUE(decoded.lifetime.distribution.has_value());

  std::ostringstream a, b;
  writeDistribution(a, *computed.lifetime.distribution);
  writeDistribution(b, *decoded.lifetime.distribution);
  EXPECT_EQ(a.str(), b.str());

  std::ostringstream reencoded;
  engine::writeRunResult(reencoded, decoded);
  EXPECT_EQ(encoded.str(), reencoded.str());
}

TEST(DistributionCacheTest, CacheHitServesDistributionMissesPointTwin) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hayat-failure-cache-test")
          .string();
  std::filesystem::remove_all(dir);

  const ExperimentSpec dist = distributionSpec(32, 99);
  const SweepTable table = runWith(dist, 1);
  ASSERT_TRUE(engine::storeCachedTable(dir, dist, table));

  const auto hit = engine::loadCachedTable(dir, dist);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(distributionBytes(*hit), distributionBytes(table));

  // The point-MTTF twin hashes to a different entry: a miss, never the
  // distribution table.
  const ExperimentSpec point = distributionSpec(0, 99);
  EXPECT_FALSE(engine::loadCachedTable(dir, point).has_value());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ statistical harness

TEST(StatisticalRegressionTest, FixedSeedScenarioReproducesGoldenPercentiles) {
  // Golden p10/p50/p90 of the fixed-seed 4x4 scenario.  These pin the
  // whole pipeline — thermal trajectories, wearout rates, Weibull
  // thresholds, graph fold.  Tolerance is relative 1e-9: loose enough
  // for cross-platform libm (tgamma/pow) drift, tight enough that any
  // model change trips it.
  const ExperimentSpec spec = distributionSpec(256, 2015);
  const SweepTable table = runWith(spec, 1);
  ASSERT_EQ(table.runs.size(), 2u);
  const RunResult& run = table.runs.front();
  ASSERT_TRUE(run.lifetime.distribution.has_value());
  const LifetimeDistribution& d = *run.lifetime.distribution;

  const double p10 = d.percentile(10.0);
  const double p50 = d.percentile(50.0);
  const double p90 = d.percentile(90.0);
  const double kGoldenP10 = 7.1590320709279363;
  const double kGoldenP50 = 16.995393943860435;
  const double kGoldenP90 = 28.965629092914391;
  EXPECT_NEAR(p10, kGoldenP10, std::abs(kGoldenP10) * 1e-9);
  EXPECT_NEAR(p50, kGoldenP50, std::abs(kGoldenP50) * 1e-9);
  EXPECT_NEAR(p90, kGoldenP90, std::abs(kGoldenP90) * 1e-9);
}

/// Two-sample Kolmogorov-Smirnov statistic: max |F1 - F2| over the
/// pooled sample.
double ksStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double stat = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j])
      ++i;
    else
      ++j;
    const double f1 = static_cast<double>(i) / static_cast<double>(a.size());
    const double f2 = static_cast<double>(j) / static_cast<double>(b.size());
    stat = std::max(stat, std::abs(f1 - f2));
  }
  return stat;
}

TEST(StatisticalRegressionTest, DisjointSeedRangesAgreeUnderKsTest) {
  // Two disjoint counter-RNG streams must sample the SAME lifetime
  // distribution: reject only past the alpha = 0.001 two-sample KS
  // critical value.  Everything is seeded, so this never flakes — it
  // fails only if the sampler develops a stream-dependent bias.
  const std::vector<UnitTrajectory> units = testTrajectories(8);
  const int n = 512;
  const LifetimeDistribution first = testMonteCarlo(n, 1000).run(units, 0.25);
  const LifetimeDistribution second = testMonteCarlo(n, 2000).run(units, 0.25);

  const double stat =
      ksStatistic(first.systemLifetimes, second.systemLifetimes);
  const double critical = 1.95 * std::sqrt(2.0 / n);  // alpha ~ 0.001
  EXPECT_LT(stat, critical);
  // And the two means agree loosely (same distribution, finite n).
  EXPECT_NEAR(first.meanLifetime(), second.meanLifetime(),
              0.2 * first.meanLifetime());
}

}  // namespace
}  // namespace hayat
