// Tests for the mapping policies: Hayat (Algorithm 1 + Eq. 9), the VAA
// baseline, and the ablation mappers.  Constraint satisfaction (Eqs. 4-5,
// dark-silicon budget, frequency requirements) is checked for every
// policy via a parameterized suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "baselines/simple_policies.hpp"
#include "baselines/vaa.hpp"
#include "common/error.hpp"
#include "core/exhaustive_policy.hpp"
#include "core/hayat_policy.hpp"
#include "core/system.hpp"
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

PolicyContext makeContext(System& system, const WorkloadMix& mix,
                          double dark = 0.5) {
  PolicyContext ctx;
  ctx.chip = &system.chip();
  ctx.thermal = &system.thermal();
  ctx.leakage = &system.leakage();
  ctx.mix = &mix;
  ctx.minDarkFraction = dark;
  return ctx;
}

// --- Eq. (9) weighting ---------------------------------------------------

TEST(HayatWeight, CapAtWmax) {
  const HayatPolicy policy;
  // Tiny slack -> the matching term saturates at wmax.
  const double w = policy.weightOf(1e-6, 1.0, 0.0);
  EXPECT_NEAR(w, 10.0 + 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(policy.weightOf(0.0, 1.0, 0.0), 11.0);
  EXPECT_DOUBLE_EQ(policy.weightOf(-0.5, 1.0, 0.0), 11.0);
}

TEST(HayatWeight, SectionVCalibrationPoint) {
  // "alpha <- 0.6 (> 1.0 weight at 600 MHz)": slack of 0.6 GHz gives a
  // matching term of exactly 1.0 in the early regime.
  const HayatPolicy policy;
  EXPECT_NEAR(policy.weightOf(0.6, 0.0, 0.0), 1.0, 1e-12);
}

TEST(HayatWeight, TightMatchBeatsSlack) {
  const HayatPolicy policy;
  EXPECT_GT(policy.weightOf(0.1, 0.95, 0.0), policy.weightOf(1.5, 0.95, 0.0));
}

TEST(HayatWeight, HealthierNextWins) {
  const HayatPolicy policy;
  EXPECT_GT(policy.weightOf(0.5, 0.99, 0.0), policy.weightOf(0.5, 0.90, 0.0));
}

TEST(HayatWeight, WearTermOffByDefaultAndMonotone) {
  const HayatPolicy paper;  // wearGamma = 0: wear must not change weights
  EXPECT_DOUBLE_EQ(paper.weightOf(0.5, 1.0, 0.0, 0.0),
                   paper.weightOf(0.5, 1.0, 0.0, 0.9));
  HayatConfig hc;
  hc.wearGamma = 5.0;
  const HayatPolicy wearAware(hc);
  EXPECT_GT(wearAware.weightOf(0.5, 1.0, 0.0, 0.1),
            wearAware.weightOf(0.5, 1.0, 0.0, 0.5));
  EXPECT_NEAR(wearAware.weightOf(0.5, 1.0, 0.0, 0.0) -
                  wearAware.weightOf(0.5, 1.0, 0.0, 0.2),
              1.0, 1e-12);
}

TEST(HayatWeight, RegimeSwitchChangesCoefficients) {
  const HayatPolicy policy;
  // Late regime: alpha 4 (matching term 4/slack), beta 0.3.
  const double early = policy.weightOf(2.0, 1.0, 0.0);   // 0.3 + 1.0
  const double late = policy.weightOf(2.0, 1.0, 5.0);    // 2.0 + 0.3
  EXPECT_NEAR(early, 1.3, 1e-12);
  EXPECT_NEAR(late, 2.3, 1e-12);
}

TEST(HayatWeight, LateRegimeEmphasizesMatching) {
  const HayatPolicy policy;
  // The same health advantage shifts the choice less in the late regime.
  const double dEarly =
      policy.weightOf(0.5, 1.0, 0.0) - policy.weightOf(0.5, 0.9, 0.0);
  const double dLate =
      policy.weightOf(0.5, 1.0, 5.0) - policy.weightOf(0.5, 0.9, 5.0);
  EXPECT_GT(dEarly, dLate);
}

// --- Constraint satisfaction for all policies (parameterized) -------------

struct PolicyCase {
  std::string name;
  std::function<std::unique_ptr<MappingPolicy>()> make;
  double darkFraction;
};

// Print a case by name.  GoogleTest's default printer dumps the object's
// bytes, heap addresses included, and that dump becomes part of the test
// names CTest registers, so they would change from build to build.
void PrintTo(const PolicyCase& c, std::ostream* os) { *os << c.name; }

class AllPolicies : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(AllPolicies, SatisfiesStructuralConstraints) {
  System system = System::create(smallConfig(), 11);
  Rng rng(5);
  const int budget = static_cast<int>(16 * (1.0 - GetParam().darkFraction));
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, budget, 3.0e9);
  auto policy = GetParam().make();
  const PolicyContext ctx = makeContext(system, mix, GetParam().darkFraction);
  const Mapping m = policy->map(ctx);

  // Eq. (5): the Mapping type enforces one thread per core; check thread
  // uniqueness too (no thread mapped twice).
  std::vector<std::pair<int, int>> seen;
  for (const MappedThread& t : m.threads()) {
    const auto key = std::make_pair(t.ref.app, t.ref.thread);
    EXPECT_EQ(std::find(seen.begin(), seen.end(), key), seen.end());
    seen.push_back(key);
  }

  // Dark-silicon budget.
  const DarkCoreMap dcm = m.toDarkCoreMap(system.chip().grid());
  EXPECT_TRUE(dcm.meetsDarkBudget(GetParam().darkFraction))
      << "onCount=" << dcm.onCount();

  // Every runnable thread is mapped.
  const auto k = chooseParallelism(mix, budget);
  int expected = 0;
  for (int kj : k) expected += kj;
  EXPECT_EQ(m.assignedCount(), expected);

  // Frequencies: every thread runs at a frequency its core can reach,
  // and never above its requirement (Section VI).
  for (const MappedThread& t : m.threads()) {
    EXPECT_LE(t.frequency, system.chip().currentFmax(t.core) + 1.0);
    EXPECT_LE(t.frequency, t.requiredFrequency + 1.0);
    EXPECT_GT(t.frequency, 0.0);
  }
}

TEST_P(AllPolicies, MeetsFrequencyRequirementsOnFreshSilicon) {
  // On an un-aged chip the requirement should be satisfiable for nearly
  // every thread (the mixes draw f_min below the typical fmax).
  System system = System::create(smallConfig(), 13);
  Rng rng(6);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);
  auto policy = GetParam().make();
  const PolicyContext ctx = makeContext(system, mix, 0.5);
  const Mapping m = policy->map(ctx);
  int violations = 0;
  for (const MappedThread& t : m.threads())
    if (t.frequency < t.requiredFrequency - 1.0) ++violations;
  EXPECT_LE(violations, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllPolicies,
    ::testing::Values(
        PolicyCase{"hayat50",
                   [] { return std::make_unique<HayatPolicy>(); }, 0.50},
        PolicyCase{"hayat25",
                   [] { return std::make_unique<HayatPolicy>(); }, 0.25},
        PolicyCase{"vaa50", [] { return std::make_unique<VaaPolicy>(); },
                   0.50},
        PolicyCase{"vaa25", [] { return std::make_unique<VaaPolicy>(); },
                   0.25},
        PolicyCase{"random",
                   [] { return std::make_unique<RandomPolicy>(); }, 0.50},
        PolicyCase{"coolest",
                   [] { return std::make_unique<CoolestFirstPolicy>(); },
                   0.50}),
    [](const auto& paramInfo) { return paramInfo.param.name; });

// --- Policy-specific behaviour ---------------------------------------------

TEST(Vaa, ProducesContiguousRegions) {
  System system = System::create(smallConfig(), 21);
  Rng rng(9);
  // One application only -> its region should be connected.
  WorkloadMix mix;
  mix.applications.push_back(ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("blackscholes"), rng, 3.0e9, 6));
  VaaPolicy vaa;
  const Mapping m = vaa.map(makeContext(system, mix, 0.5));
  const DarkCoreMap dcm = m.toDarkCoreMap(system.chip().grid());
  // Flood-fill from any lit core must reach all lit cores.
  const GridShape& g = system.chip().grid();
  int start = -1;
  for (int i = 0; i < 16; ++i)
    if (dcm.isOn(i)) {
      start = i;
      break;
    }
  ASSERT_GE(start, 0);
  std::vector<bool> seen(16, false);
  std::vector<int> stack{start};
  seen[static_cast<std::size_t>(start)] = true;
  int reached = 0;
  while (!stack.empty()) {
    const int c = stack.back();
    stack.pop_back();
    ++reached;
    for (int nb : g.neighbors4(c))
      if (dcm.isOn(nb) && !seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = true;
        stack.push_back(nb);
      }
  }
  EXPECT_EQ(reached, dcm.onCount());
}

TEST(Hayat, SpreadsMoreThanVaa) {
  // Hayat's placements should have fewer lit-lit adjacencies than VAA's
  // dense regions — the thermal-headroom mechanism of Section II.
  System system = System::create(smallConfig(), 31);
  Rng rng(12);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);
  VaaPolicy vaa;
  HayatPolicy hayat;
  const Mapping mv = vaa.map(makeContext(system, mix, 0.5));
  const Mapping mh = hayat.map(makeContext(system, mix, 0.5));
  auto adjacency = [&](const Mapping& m) {
    const DarkCoreMap dcm = m.toDarkCoreMap(system.chip().grid());
    int acc = 0;
    for (int i = 0; i < 16; ++i)
      if (dcm.isOn(i)) acc += dcm.litNeighbours(i);
    return acc;
  };
  EXPECT_LT(adjacency(mh), adjacency(mv));
}

TEST(Hayat, PreservesFastestCore) {
  // With moderate requirements, the chip's fastest core should stay dark
  // under Hayat (frequency-matching preserves it) but is routinely used
  // by throughput-greedy VAA region growth.
  SystemConfig sc = smallConfig();
  System system = System::create(sc, 41);
  const Chip& chip = system.chip();
  int fastest = 0;
  for (int i = 1; i < 16; ++i)
    if (chip.currentFmax(i) > chip.currentFmax(fastest)) fastest = i;

  int hayatUsed = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(200 + seed);
    const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 6, 3.0e9);
    HayatPolicy hayat;
    const Mapping m = hayat.map(makeContext(system, mix, 0.5));
    if (m.coreBusy(fastest)) ++hayatUsed;
  }
  // The fastest core is rarely the tightest frequency match.
  EXPECT_LE(hayatUsed, 2);
}

TEST(Hayat, RespectsTsafePredicted) {
  // All candidate evaluations passed the predicted-Tsafe filter, so the
  // mapping's predicted steady state must stay below Tsafe.
  System system = System::create(smallConfig(), 51);
  Rng rng(13);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);
  HayatPolicy hayat;
  const PolicyContext ctx = makeContext(system, mix, 0.5);
  const Mapping m = hayat.map(ctx);
  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = system.chip().coreCount();
  Vector dyn = m.averageDynamicPower(mix, 3.0e9);
  std::vector<bool> on(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    on[static_cast<std::size_t>(i)] = m.coreBusy(i);
  const Vector temps = predictor.predict(dyn, on);
  for (double t : temps) EXPECT_LT(t, ctx.tsafe + 0.5);
}

TEST(Random, DeterministicPerSeed) {
  System system = System::create(smallConfig(), 61);
  Rng rng(14);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);
  RandomPolicy a(5), b(5);
  const Mapping ma = a.map(makeContext(system, mix, 0.5));
  const Mapping mb = b.map(makeContext(system, mix, 0.5));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ma.coreBusy(i), mb.coreBusy(i));
}

TEST(CoolestFirst, PrefersThermallyIsolatedCores) {
  // A single hot thread should land in a corner-ish region, not get
  // boxed against other placements: with two threads, they must not be
  // adjacent.
  System system = System::create(smallConfig(), 71);
  Rng rng(15);
  WorkloadMix mix;
  mix.applications.push_back(ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("canneal"), rng, 3.0e9, 2));
  CoolestFirstPolicy policy;
  const Mapping m = policy.map(makeContext(system, mix, 0.5));
  std::vector<int> cores;
  for (const MappedThread& t : m.threads()) cores.push_back(t.core);
  ASSERT_EQ(cores.size(), 2u);
  EXPECT_GT(system.chip().grid().manhattan(cores[0], cores[1]), 1);
}

// --- Discrete DVFS -----------------------------------------------------------

TEST(Dvfs, PoliciesSnapToLadderLevels) {
  System system = System::create(smallConfig(), 71);
  Rng rng(19);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);
  const FrequencyLadder ladder = FrequencyLadder::uniform(0.5e9, 3.5e9, 13);
  PolicyContext ctx = makeContext(system, mix, 0.5);
  ctx.dvfs = &ladder;

  HayatPolicy hayat;
  VaaPolicy vaa;
  for (MappingPolicy* policy :
       std::initializer_list<MappingPolicy*>{&hayat, &vaa}) {
    const Mapping m = policy->map(ctx);
    for (const MappedThread& t : m.threads()) {
      bool onLevel = false;
      for (int l = 0; l < ladder.levelCount(); ++l)
        if (std::abs(t.frequency - ladder.level(l)) < 1.0) onLevel = true;
      EXPECT_TRUE(onLevel) << policy->name() << " freq " << t.frequency;
    }
  }
}

TEST(Dvfs, LadderMeetsRequirementsWhenLevelsSuffice) {
  System system = System::create(smallConfig(), 73);
  Rng rng(20);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 8, 3.0e9);
  const FrequencyLadder fine = FrequencyLadder::uniform(0.2e9, 3.6e9, 35);
  PolicyContext ctx = makeContext(system, mix, 0.5);
  ctx.dvfs = &fine;
  HayatPolicy hayat;
  const Mapping m = hayat.map(ctx);
  int shortfalls = 0;
  for (const MappedThread& t : m.threads())
    if (t.frequency < t.requiredFrequency - 1.0) ++shortfalls;
  EXPECT_LE(shortfalls, 1);  // fresh silicon: fine ladder ~always suffices
}

// --- Mid-epoch application arrival (Section VI overhead path) ---------------

TEST(HayatIncremental, PlacesArrivingAppWithoutMovingOthers) {
  System system = System::create(smallConfig(), 81);
  Rng rng(21);
  WorkloadMix mix;
  mix.applications.push_back(ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("canneal"), rng, 3.0e9, 3));
  mix.applications.push_back(ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("swaptions"), rng, 3.0e9, 3));
  const PolicyContext ctx = makeContext(system, mix, 0.5);

  HayatPolicy hayat;
  // Start with only app 0 running.
  Mapping initial(system.chip().coreCount());
  hayat.map(ctx);  // exercise the full path too
  {
    WorkloadMix onlyFirst;
    onlyFirst.applications.push_back(mix.applications[0]);
    PolicyContext firstCtx = makeContext(system, onlyFirst, 0.5);
    initial = hayat.map(firstCtx);
  }
  // Note: `initial` was produced against a single-app mix, so its refs
  // point at app index 0, which is the same application in `mix`.
  const Mapping after = hayat.placeApplication(ctx, initial, /*appIndex=*/1);

  // Existing threads stayed put.
  for (int c = 0; c < system.chip().coreCount(); ++c) {
    if (!initial.coreBusy(c)) continue;
    ASSERT_TRUE(after.coreBusy(c));
    EXPECT_EQ(after.onCore(c)->ref, initial.onCore(c)->ref);
  }
  // The arriving app's threads are all placed.
  int arrived = 0;
  for (const MappedThread& t : after.threads())
    if (t.ref.app == 1) ++arrived;
  EXPECT_EQ(arrived, mix.applications[1].maxThreads());
}

TEST(HayatIncremental, RespectsDarkBudget) {
  System system = System::create(smallConfig(), 83);
  Rng rng(22);
  WorkloadMix mix;
  mix.applications.push_back(ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("blackscholes"), rng, 3.0e9, 8));
  const PolicyContext ctx = makeContext(system, mix, 0.75);  // budget = 4
  HayatPolicy hayat;
  const Mapping empty(system.chip().coreCount());
  EXPECT_THROW(hayat.placeApplication(ctx, empty, 0), Error);
}

TEST(HayatIncremental, MalleableArrivalScalesFrequency) {
  System system = System::create(smallConfig(), 85);
  Rng rng(23);
  WorkloadMix mix;
  mix.applications.push_back(ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("canneal"), rng, 3.0e9, 4));
  const PolicyContext ctx = makeContext(system, mix, 0.5);
  HayatPolicy hayat;
  const Mapping empty(system.chip().coreCount());
  // Run with 2 of 4 threads: each must require 2x the per-thread f_min.
  const Mapping m = hayat.placeApplication(ctx, empty, 0, 2);
  EXPECT_EQ(m.assignedCount(), 2);
  for (const MappedThread& t : m.threads())
    EXPECT_NEAR(t.requiredFrequency,
                mix.applications[0].thread(t.ref.thread).minFrequency() * 2.0,
                1.0);
}

// --- Exhaustive optimum (the Section IV-A ILP, solved offline) -------------

SystemConfig tinyConfig() {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(3, 3);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  return sc;
}

WorkloadMix tinyMix(std::uint64_t seed) {
  Rng rng(seed);
  WorkloadMix mix;
  mix.applications.push_back(ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("canneal"), rng, 3.0e9, 2));
  mix.applications.push_back(ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("swaptions"), rng, 3.0e9, 2));
  return mix;
}

TEST(Exhaustive, AssignmentCounting) {
  EXPECT_EQ(ExhaustivePolicy::assignmentCount(9, 0), 1u);
  EXPECT_EQ(ExhaustivePolicy::assignmentCount(9, 2), 72u);
  EXPECT_EQ(ExhaustivePolicy::assignmentCount(4, 4), 24u);
  EXPECT_EQ(ExhaustivePolicy::assignmentCount(3, 4), 0u);
}

TEST(Exhaustive, RefusesLargeInstances) {
  System system = System::create(smallConfig(), 91);  // 4x4 = 16 cores
  Rng rng(17);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 12, 3.0e9);
  ExhaustiveConfig cfg;
  cfg.maxAssignments = 1000;
  ExhaustivePolicy policy(cfg);
  EXPECT_THROW(policy.map(makeContext(system, mix, 0.25)), Error);
}

TEST(Exhaustive, ObjectiveRejectsUnsafeMappings) {
  System system = System::create(tinyConfig(), 93);
  const WorkloadMix mix = tinyMix(3);
  PolicyContext ctx = makeContext(system, mix, 0.5);
  ctx.tsafe = 320.0;  // artificially low — every mapping is "unsafe"
  Mapping m(system.chip().coreCount());
  m.assign({0, 0}, 0, 2.0e9);
  EXPECT_LT(ExhaustivePolicy::objective(ctx, m), 0.0);
}

TEST(Exhaustive, OptimalBeatsOrMatchesEveryHeuristic) {
  System system = System::create(tinyConfig(), 95);
  const WorkloadMix mix = tinyMix(5);
  const PolicyContext ctx = makeContext(system, mix, 0.5);

  ExhaustivePolicy optimal;
  const Mapping mOpt = optimal.map(ctx);
  const double best = ExhaustivePolicy::objective(ctx, mOpt);
  ASSERT_GT(best, 0.0);

  HayatPolicy hayat;
  VaaPolicy vaa;
  RandomPolicy random;
  EXPECT_GE(best + 1e-12,
            ExhaustivePolicy::objective(ctx, hayat.map(ctx)));
  EXPECT_GE(best + 1e-12, ExhaustivePolicy::objective(ctx, vaa.map(ctx)));
  EXPECT_GE(best + 1e-12,
            ExhaustivePolicy::objective(ctx, random.map(ctx)));
}

TEST(Exhaustive, HayatHeuristicIsNearOptimal) {
  // Across several tiny instances, Algorithm 1 must land within 1% of the
  // enumerated Eq. (6) optimum (normalized by the core count).
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    System system = System::create(tinyConfig(), seed);
    const WorkloadMix mix = tinyMix(seed);
    const PolicyContext ctx = makeContext(system, mix, 0.5);
    ExhaustivePolicy optimal;
    const double best =
        ExhaustivePolicy::objective(ctx, optimal.map(ctx));
    HayatPolicy hayat;
    const double heuristic =
        ExhaustivePolicy::objective(ctx, hayat.map(ctx));
    ASSERT_GT(best, 0.0);
    EXPECT_GT(heuristic, 0.0) << "Hayat produced an unsafe mapping";
    EXPECT_GE(heuristic, 0.99 * best) << "seed " << seed;
  }
}

TEST(Policies, IncompleteContextThrows) {
  HayatPolicy hayat;
  PolicyContext empty;
  EXPECT_THROW(hayat.map(empty), Error);
  VaaPolicy vaa;
  EXPECT_THROW(vaa.map(empty), Error);
}

}  // namespace
}  // namespace hayat
