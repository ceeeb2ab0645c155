// Dedicated tests for the Hayat placement hot loop (DESIGN.md §3.11).
//
// The flagless fast paths are pinned here:
//   * commitPlacement must be bitwise the promoted what-if — after a
//     commit, the baseline temperatures equal predictWithCandidateInto's
//     output element for element, across chip sizes and randomized
//     placement sequences;
//   * evaluateCandidate and candidateMaxPeakBelow must match the scalar
//     full-walk reference (predictor_reference.hpp) field for field;
//   * the tiled fixed point of predictInto must be bitwise the row-order
//     product, including core counts that are not a multiple of the tile;
//   * the decisions of a fixed sequence of 16x16 rounds are pinned by
//     digest, covering the heap-ordered candidate selection.
// The commit fold approximates the leakage fixed point the same way the
// what-if path does, so its drift against a full refreshBaseline is
// bounded, not zero — that bound is pinned too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/hayat_policy.hpp"
#include "core/system.hpp"
#include "predictor_reference.hpp"
#include "runtime/thermal_predictor.hpp"
#include "workload/generator.hpp"

namespace hayat {
namespace {

SystemConfig gridConfig(int rows, int cols) {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(rows, cols);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  return sc;
}

/// A random partially-powered baseline on `system`'s chip.
ThermalPredictor::Baseline randomBaseline(const ThermalPredictor& predictor,
                                          int n, Rng& rng) {
  Vector dyn(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> on(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    if (rng.uniform() < 0.4) {
      on[static_cast<std::size_t>(i)] = true;
      dyn[static_cast<std::size_t>(i)] = rng.uniform(0.5, 6.0);
    }
  }
  return predictor.makeBaseline(dyn, on);
}

struct GridCase {
  int rows, cols;
};

class HayatPolicyGrid : public ::testing::TestWithParam<GridCase> {};

// Lever 1: the committed baseline IS the scored what-if, bitwise, for
// randomized placement sequences.
TEST_P(HayatPolicyGrid, CommitIsBitwiseThePromotedWhatIf) {
  const GridCase g = GetParam();
  System system = System::create(gridConfig(g.rows, g.cols), 2015);
  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = system.chip().coreCount();

  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    ThermalPredictor::Baseline baseline =
        randomBaseline(predictor, n, rng);
    Vector whatIf;
    int commits = 0;
    for (int c = 0; c < n && commits < n / 2; ++c) {
      if (baseline.poweredOn[static_cast<std::size_t>(c)]) continue;
      if (rng.uniform() < 0.4) continue;  // randomize the sequence
      const Watts power = rng.uniform(0.5, 6.0);
      predictor.predictWithCandidateInto(baseline, c, power, whatIf);
      predictor.commitPlacement(baseline, c, power);
      ++commits;
      ASSERT_EQ(static_cast<int>(whatIf.size()), n);
      for (int i = 0; i < n; ++i) {
        // Bitwise: commitPlacement runs the same fold over the same
        // column (shared addColumnScaled), just in place.
        ASSERT_EQ(baseline.temperatures[static_cast<std::size_t>(i)],
                  whatIf[static_cast<std::size_t>(i)])
            << "core " << i << " after committing " << c;
      }
      // The maintained sum is the canonical index-order sum.
      double sum = 0.0;
      for (const double t : baseline.temperatures) sum += t;
      ASSERT_EQ(baseline.temperatureSum, sum);
    }
    ASSERT_GT(commits, 0);
  }
}

// The rank-1 fold drops the second-order leakage re-coupling of the
// other powered cores, and that neglect compounds — which is why the
// policy re-anchors with a full refreshBaseline every 8 commits.  This
// pins the drift bound of exactly that scheme, in the regime the policy
// operates in: every commit passed the Tsafe guard (which keeps the
// chip out of the exponential-leakage zone), and the anchor cadence
// matches the loop's.  An unanchored sequence drifts ~15 K at 16x16;
// the anchored one stays under ~4 K at every size.
TEST_P(HayatPolicyGrid, AnchoredCommitSequenceStaysNearFullRefresh) {
  const GridCase g = GetParam();
  System system = System::create(gridConfig(g.rows, g.cols), 2015);
  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = system.chip().coreCount();
  const Kelvin tsafe = 358.0;        // LifetimeConfig default
  const int anchorInterval = 8;      // the policy's re-anchor cadence

  Rng rng(99);
  Vector empty(static_cast<std::size_t>(n), 0.0);
  Vector scratch;
  ThermalPredictor::Baseline baseline = predictor.makeBaseline(
      empty, std::vector<bool>(static_cast<std::size_t>(n), false));
  int commits = 0;
  int sinceAnchor = 0;
  double worstDrift = 0.0;
  for (int c = 0; c < n && commits < n / 2; ++c) {
    if (baseline.poweredOn[static_cast<std::size_t>(c)]) continue;
    const Watts power = rng.uniform(0.5, 4.0);
    if (testref::candidateStats(predictor, system.leakage(), baseline, c,
                                power, power)
            .maxPeak >= tsafe)
      continue;  // the same guard Algorithm 1 applies (line 12)
    predictor.commitPlacement(baseline, c, power);
    ++commits;
    ThermalPredictor::Baseline check = baseline;
    Vector checkScratch;
    predictor.refreshBaseline(check, checkScratch);
    worstDrift = std::max(
        worstDrift, maxAbsDiff(baseline.temperatures, check.temperatures));
    if (++sinceAnchor >= anchorInterval) {
      predictor.refreshBaseline(baseline, scratch);
      sinceAnchor = 0;
    }
  }
  ASSERT_GT(commits, 0);
  EXPECT_LT(worstDrift, 6.0);
}

// Lever 2: the fused guard decides exactly the boolean
// `reference maxPeak >= tsafe`, and the closed-form fields it hands back
// (admitted or not) are bitwise the reference's — across tsafe values
// that land on every bound path, including tsafe == maxPeak exactly (the
// >= edge) and tsafe == the hot-spot term.  The reported guard path
// names the branch that decided, and every branch is reached.
TEST_P(HayatPolicyGrid, EvaluateCandidateMatchesStatsBitwise) {
  using GuardPath = ThermalPredictor::GuardPath;
  const GridCase g = GetParam();
  System system = System::create(gridConfig(g.rows, g.cols), 2015);
  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = system.chip().coreCount();

  Rng rng(23);
  const ThermalPredictor::Baseline baseline =
      randomBaseline(predictor, n, rng);
  const auto hot = static_cast<std::size_t>(baseline.temperatureMaxIndex);
  int paths[4] = {};
  Vector tPeak;
  for (int cand = 0; cand < n; ++cand) {
    const Watts added = rng.uniform(0.5, 6.0);
    const Watts peak = added * rng.uniform(1.0, 1.6);
    const testref::CandidateStats stats = testref::candidateStats(
        predictor, system.leakage(), baseline, cand, added, peak);
    predictor.predictWithCandidateInto(baseline, cand, peak, tPeak);
    const double selfTerm = tPeak[static_cast<std::size_t>(cand)];
    const double hotTerm = tPeak[hot];
    const Kelvin tsafes[] = {stats.maxPeak,  // the exact >= edge
                             stats.maxPeak * (1.0 + 1e-12),
                             stats.maxPeak * (1.0 - 1e-12),
                             hotTerm,
                             250.0,   // everything trips
                             1000.0,  // nothing trips (O(1) admit)
                             0.0};    // degenerate guard
    for (const Kelvin tsafe : tsafes) {
      const ThermalPredictor::CandidateDecision d =
          predictor.evaluateCandidate(baseline, cand, added, peak, tsafe);
      ASSERT_EQ(d.admitted, stats.maxPeak < tsafe)
          << "candidate " << cand << " tsafe " << tsafe;
      ASSERT_EQ(d.sumNext, stats.sumNext) << "candidate " << cand;
      ASSERT_EQ(d.candidateNext, stats.candidateNext)
          << "candidate " << cand;
      ++paths[static_cast<int>(d.guard)];
      switch (d.guard) {
        case GuardPath::SelfReject:
          ASSERT_TRUE(tsafe <= 0.0 || selfTerm >= tsafe);
          break;
        case GuardPath::HotReject:
          ASSERT_TRUE(selfTerm < tsafe && hotTerm >= tsafe);
          break;
        case GuardPath::BoundAdmit:
          ASSERT_TRUE(d.admitted);
          break;
        case GuardPath::GrayWalk:
          ASSERT_TRUE(selfTerm < tsafe && hotTerm < tsafe);
          break;
      }
    }
  }
  for (int p = 0; p < 4; ++p) EXPECT_GT(paths[p], 0) << "guard path " << p;
}

// The fallback's bounded peak query: exact (bitwise the full-stats
// average-power maxPeak) whenever the true peak is at or below the
// bound — including an exact tie — and +infinity whenever it is above.
TEST_P(HayatPolicyGrid, CandidateMaxPeakBelowIsExactWithinBound) {
  const GridCase g = GetParam();
  System system = System::create(gridConfig(g.rows, g.cols), 2015);
  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = system.chip().coreCount();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  Rng rng(31);
  const ThermalPredictor::Baseline baseline =
      randomBaseline(predictor, n, rng);
  for (int cand = 0; cand < n; ++cand) {
    const Watts added = rng.uniform(0.5, 6.0);
    // The delta the policy stashes from the main sweep's rejection.
    const double delta =
        predictor.evaluateCandidate(baseline, cand, added, 1.5 * added, 250.0)
            .deltaNext;
    const double truth = testref::candidateStats(predictor, system.leakage(),
                                                 baseline, cand, added, added)
                             .maxPeak;
    ASSERT_EQ(predictor.candidateMaxPeakBelow(baseline, cand, delta, truth),
              truth)
        << "candidate " << cand;  // exact tie is still served exactly
    ASSERT_EQ(
        predictor.candidateMaxPeakBelow(baseline, cand, delta, truth + 1.0),
        truth)
        << "candidate " << cand;
    ASSERT_EQ(predictor.candidateMaxPeakBelow(baseline, cand, delta,
                                              truth * (1.0 - 1e-12)),
              kInf)
        << "candidate " << cand;
    ASSERT_EQ(predictor.candidateMaxPeakBelow(baseline, cand, delta, -1.0),
              kInf)
        << "candidate " << cand;
  }
}

// Every baseline producer maintains the same canonical aggregates: the
// index-order sum, the order-independent max, and the lowest index
// attaining it (the strictly-greater scan) — the O(1) bounds the guard
// paths lean on.
TEST_P(HayatPolicyGrid, BaselineAggregatesStayCanonical) {
  const GridCase g = GetParam();
  System system = System::create(gridConfig(g.rows, g.cols), 2015);
  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = system.chip().coreCount();

  const auto check = [n](const ThermalPredictor::Baseline& b,
                         const char* where) {
    double sum = 0.0;
    double mx = -std::numeric_limits<double>::infinity();
    int arg = 0;
    for (int i = 0; i < n; ++i) {
      const double t = b.temperatures[static_cast<std::size_t>(i)];
      sum += t;
      if (t > mx) {
        mx = t;
        arg = i;
      }
    }
    ASSERT_EQ(b.temperatureSum, sum) << where;
    ASSERT_EQ(b.temperatureMax, mx) << where;
    ASSERT_EQ(b.temperatureMaxIndex, arg) << where;
  };

  Rng rng(41);
  ThermalPredictor::Baseline baseline = randomBaseline(predictor, n, rng);
  check(baseline, "makeBaseline");
  Vector scratch;
  int commits = 0;
  for (int c = 0; c < n && commits < n / 2; ++c) {
    if (baseline.poweredOn[static_cast<std::size_t>(c)]) continue;
    predictor.commitPlacement(baseline, c, rng.uniform(0.5, 6.0));
    ++commits;
    check(baseline, "commitPlacement");
  }
  ASSERT_GT(commits, 0);
  predictor.refreshBaseline(baseline, scratch);
  check(baseline, "refreshBaseline");
}

INSTANTIATE_TEST_SUITE_P(Grids, HayatPolicyGrid,
                         ::testing::Values(GridCase{4, 4}, GridCase{8, 8},
                                           GridCase{16, 16}),
                         [](const ::testing::TestParamInfo<GridCase>& param) {
                           return std::to_string(param.param.rows) + "x" +
                                  std::to_string(param.param.cols);
                         });

class PredictorSweep : public ::testing::TestWithParam<GridCase> {};

// The fixed point runs column by column over the transposed kernel in
// register tiles of eight rows; every row still sums its products in
// index order, so the temperatures are bitwise the row-order product —
// for core counts below, at and between multiples of the tile, with 0,
// 2 and 5 leakage sweeps, over random power states.
TEST_P(PredictorSweep, TiledMatchesRowOrderBitwise) {
  const GridCase g = GetParam();
  System system = System::create(gridConfig(g.rows, g.cols), 2015);
  const int n = system.chip().coreCount();
  Vector out;
  Vector scratch;
  for (const int iterations : {0, 2, 5}) {
    const ThermalPredictor predictor(system.thermal(), system.leakage(),
                                     iterations);
    for (const std::uint64_t seed : {3u, 17u, 101u}) {
      Rng rng(seed);
      Vector dyn(static_cast<std::size_t>(n), 0.0);
      std::vector<bool> on(static_cast<std::size_t>(n), false);
      for (int i = 0; i < n; ++i) {
        if (rng.uniform() < 0.5) {
          on[static_cast<std::size_t>(i)] = true;
          dyn[static_cast<std::size_t>(i)] = rng.uniform(0.5, 6.0);
        }
      }
      predictor.predictInto(dyn, on, out, scratch);
      const Vector ref = testref::rowOrderPredict(
          system.thermal(), system.leakage(), iterations, dyn, on);
      ASSERT_EQ(out.size(), ref.size());
      EXPECT_EQ(
          std::memcmp(out.data(), ref.data(), out.size() * sizeof(double)), 0)
          << "iterations " << iterations << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, PredictorSweep,
                         ::testing::Values(GridCase{1, 3}, GridCase{3, 5},
                                           GridCase{5, 5}, GridCase{4, 4},
                                           GridCase{8, 8}, GridCase{16, 16}),
                         [](const ::testing::TestParamInfo<GridCase>& param) {
                           return std::to_string(param.param.rows) + "x" +
                                  std::to_string(param.param.cols);
                         });

PolicyContext contextFor(System& system, const WorkloadMix& mix) {
  PolicyContext ctx;
  ctx.chip = &system.chip();
  ctx.thermal = &system.thermal();
  ctx.leakage = &system.leakage();
  ctx.mix = &mix;
  ctx.minDarkFraction = 0.5;
  return ctx;
}

// Repeating a map() must reproduce the identical mapping and decision
// log — the restructured loop stays deterministic.
TEST(HayatPolicyLoop, MapIsDeterministic) {
  System system = System::create(gridConfig(8, 8), 3);
  Rng rng(11);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 12, 3.0e9);
  const PolicyContext ctx = contextFor(system, mix);

  HayatPolicy a, b;
  const Mapping ma = a.map(ctx);
  const Mapping mb = b.map(ctx);
  ASSERT_EQ(ma.threads().size(), mb.threads().size());
  for (std::size_t i = 0; i < ma.threads().size(); ++i) {
    EXPECT_EQ(ma.threads()[i].core, mb.threads()[i].core);
    EXPECT_EQ(ma.threads()[i].frequency, mb.threads()[i].frequency);
  }
  ASSERT_EQ(a.lastDecisions().size(), b.lastDecisions().size());
  for (std::size_t i = 0; i < a.lastDecisions().size(); ++i) {
    EXPECT_EQ(a.lastDecisions()[i].core, b.lastDecisions()[i].core);
    EXPECT_EQ(a.lastDecisions()[i].weight, b.lastDecisions()[i].weight);
  }
}

/// FNV-1a over one round's decision log: core, weight bits, feasible
/// count.
void foldDecisions(const HayatPolicy& policy, std::uint64_t& h) {
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(policy.lastDecisions().size());
  for (const HayatPlacementDecision& d : policy.lastDecisions()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d.weight, sizeof bits);
    mix(static_cast<std::uint64_t>(d.core));
    mix(bits);
    mix(static_cast<std::uint64_t>(d.candidatesFeasible));
  }
}

// The placement decisions of a fixed sequence of 16x16 rounds, pinned
// bit for bit: the chip's own health, tied weight bounds (a uniform
// sensor map with zero wear, so every survivor shares one bound and the
// scan examines them all), requirements no core meets (every idle core a
// candidate at the capped weight), a Tsafe below ambient (every thread
// placed by the all-rejected fallback), a wear-aware policy in the
// late-aging regime, and an incremental placement.  The predictor's
// fixed point and the lazy selection both feed these decisions.
TEST(HayatPolicyLoop, DecisionsArePinned16x16) {
  System system = System::create(gridConfig(16, 16), 3);
  const int n = system.chip().coreCount();
  Rng rng(5);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 96, 3.0e9);
  std::uint64_t h = 0xcbf29ce484222325ull;

  HayatPolicy policy;
  PolicyContext ctx = contextFor(system, mix);
  const Mapping first = policy.map(ctx);
  foldDecisions(policy, h);

  const HealthMap uniform(std::vector<Hertz>(static_cast<std::size_t>(n),
                                             3.2e9));
  const std::vector<double> zeroWear(static_cast<std::size_t>(n), 0.0);
  PolicyContext tied = ctx;
  tied.observedHealth = &uniform;
  tied.observedWear = &zeroWear;
  policy.map(tied);
  foldDecisions(policy, h);
  tied.elapsedYears = 4.0;  // late-aging coefficients, same ties
  policy.map(tied);
  foldDecisions(policy, h);

  const HealthMap slow(std::vector<Hertz>(static_cast<std::size_t>(n),
                                          0.5e9));
  PolicyContext infeasible = ctx;
  infeasible.observedHealth = &slow;
  policy.map(infeasible);
  foldDecisions(policy, h);
  for (std::size_t i = 0; i < policy.lastDecisions().size(); ++i)
    ASSERT_EQ(policy.lastDecisions()[i].candidatesFeasible,
              n - static_cast<int>(i));  // every idle core

  PolicyContext saturated = ctx;
  saturated.tsafe = 300.0;  // below ambient: every candidate trips
  policy.map(saturated);
  foldDecisions(policy, h);
  for (const HayatPlacementDecision& d : policy.lastDecisions())
    ASSERT_EQ(d.weight, 0.0);  // the fallback's unscored placement

  HayatConfig wearCfg;
  wearCfg.wearGamma = 0.5;
  HayatPolicy wearAware(wearCfg);
  std::vector<double> wear(static_cast<std::size_t>(n));
  for (double& w : wear) w = rng.uniform(0.0, 0.4);
  PolicyContext worn = ctx;
  worn.observedWear = &wear;
  worn.elapsedYears = 5.0;
  wearAware.map(worn);
  foldDecisions(wearAware, h);

  Mapping partial = first;
  for (int c = 0; c < n; ++c) {
    const std::optional<MappedThread>& on = partial.onCore(c);
    if (on && on->ref.app == 0) partial.unassign(c);
  }
  policy.placeApplication(ctx, partial, 0);
  foldDecisions(policy, h);

  EXPECT_EQ(h, 0x7df910e8c4b6a97eull) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace hayat
