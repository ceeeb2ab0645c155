// Dedicated tests for the Hayat placement hot loop (DESIGN.md §3.11).
//
// The two flagless fast paths are pinned here:
//   * commitPlacement must be bitwise the promoted what-if — after a
//     commit, the baseline temperatures equal predictWithCandidateInto's
//     output element for element, across chip sizes and randomized
//     placement sequences;
//   * the blocked kernel-column walk in predictCandidateStats must match
//     the scalar reference element for element.
// The commit fold approximates the leakage fixed point the same way the
// what-if path does, so its drift against a full refreshBaseline is
// bounded, not zero — that bound is pinned too.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/hayat_policy.hpp"
#include "core/system.hpp"
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
    if (predictor.predictCandidateStats(baseline, c, power, power).maxPeak >=
        tsafe)
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

// Lever 2: the blocked 4-lane column walk returns exactly what the
// scalar reference returns, field for field, for every candidate.
TEST_P(HayatPolicyGrid, BlockedStatsMatchReferenceBitwise) {
  const GridCase g = GetParam();
  System system = System::create(gridConfig(g.rows, g.cols), 2015);
  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = system.chip().coreCount();

  Rng rng(7);
  const ThermalPredictor::Baseline baseline =
      randomBaseline(predictor, n, rng);
  for (int cand = 0; cand < n; ++cand) {
    const Watts added = rng.uniform(0.5, 6.0);
    const Watts peak = added * rng.uniform(1.0, 1.6);
    const ThermalPredictor::CandidateStats fast =
        predictor.predictCandidateStats(baseline, cand, added, peak);
    const ThermalPredictor::CandidateStats ref =
        predictor.predictCandidateStatsReference(baseline, cand, added,
                                                 peak);
    ASSERT_EQ(fast.sumNext, ref.sumNext) << "candidate " << cand;
    ASSERT_EQ(fast.maxPeak, ref.maxPeak) << "candidate " << cand;
    ASSERT_EQ(fast.candidateNext, ref.candidateNext) << "candidate " << cand;
  }
}

// Lever 3: the fused guard decides exactly the boolean
// `predictCandidateStats(...).maxPeak >= tsafe`, and the closed-form
// fields it hands back (admitted or not) are bitwise the full-stats
// pass's — across tsafe values that land on every bound path, including
// tsafe == maxPeak exactly (the >= edge).
TEST_P(HayatPolicyGrid, EvaluateCandidateMatchesStatsBitwise) {
  const GridCase g = GetParam();
  System system = System::create(gridConfig(g.rows, g.cols), 2015);
  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = system.chip().coreCount();

  Rng rng(23);
  const ThermalPredictor::Baseline baseline =
      randomBaseline(predictor, n, rng);
  for (int cand = 0; cand < n; ++cand) {
    const Watts added = rng.uniform(0.5, 6.0);
    const Watts peak = added * rng.uniform(1.0, 1.6);
    const ThermalPredictor::CandidateStats stats =
        predictor.predictCandidateStats(baseline, cand, added, peak);
    const Kelvin tsafes[] = {stats.maxPeak,  // the exact >= edge
                             stats.maxPeak * (1.0 + 1e-12),
                             stats.maxPeak * (1.0 - 1e-12),
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
    }
  }
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
    const double truth =
        predictor.predictCandidateStats(baseline, cand, added, added).maxPeak;
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

}  // namespace
}  // namespace hayat
