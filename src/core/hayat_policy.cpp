#include "core/hayat_policy.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/alloc_counter.hpp"
#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat {

namespace {
std::atomic<std::uint64_t> placementLoopAllocs{0};

telemetry::Counter& decisionsTotal =
    telemetry::Registry::global().counter("hayat_policy_hayat_decisions_total");
telemetry::Counter& placementAllocsTotal =
    telemetry::Registry::global().counter("hayat_policy_placement_allocs");
telemetry::Counter& candidatesTotal =
    telemetry::Registry::global().counter("hayat_policy_candidates_total");
telemetry::Counter& selfRejectTotal = telemetry::Registry::global().counter(
    "hayat_policy_tsafe_self_reject_total");
telemetry::Counter& hotRejectTotal = telemetry::Registry::global().counter(
    "hayat_policy_tsafe_hot_reject_total");
telemetry::Counter& boundAdmitTotal = telemetry::Registry::global().counter(
    "hayat_policy_tsafe_bound_admit_total");
telemetry::Counter& grayWalkTotal = telemetry::Registry::global().counter(
    "hayat_policy_tsafe_gray_walk_total");

/// Commits between full fixed-point re-anchors of the prediction
/// baseline (§3.11).  Each commit is a rank-1 fold that neglects the
/// leakage re-coupling of the *other* powered cores, and that neglect
/// compounds across a round — measured drift versus the full refresh
/// stays under ~4 K at this cadence across 4x4..16x16 (pinned in
/// tests/test_hayat_policy.cpp), while the amortized refresh cost per
/// placement drops by the same factor of 8.
constexpr int kBaselineAnchorInterval = 8;

/// Survivors whose health is estimated per lazy-selection step: large
/// enough that AgingTable::advanceDelayFactorMany's 4-lane bisection
/// interleave stays saturated, small enough that one step past the
/// stopping bound wastes little work.
constexpr int kHealthChunk = 8;
}  // namespace

std::uint64_t hayatPlacementLoopAllocs() {
  return placementLoopAllocs.load();
}

HayatPolicy::HayatPolicy(HayatConfig config) : config_(config) {
  HAYAT_REQUIRE(config.wmax > 0.0, "wmax must be positive");
  HAYAT_REQUIRE(config.earlyAlphaGHz > 0.0 && config.lateAlphaGHz > 0.0,
                "alpha coefficients must be positive");
  HAYAT_REQUIRE(config.earlyBeta >= 0.0 && config.lateBeta >= 0.0,
                "beta coefficients must be non-negative");
  HAYAT_REQUIRE(config.lateAgingOnset >= 0.0, "negative late-aging onset");
}

double HayatPolicy::weightOf(double slackGHz, double healthRatio,
                             Years elapsed, double wear) const {
  const bool late = elapsed >= config_.lateAgingOnset;
  const double alpha = late ? config_.lateAlphaGHz : config_.earlyAlphaGHz;
  const double beta = late ? config_.lateBeta : config_.earlyBeta;
  // Frequency-matching term, capped at wmax ("limited to a certain
  // maximum weight"); zero/negative slack is a perfect match -> wmax.
  const double matching =
      slackGHz <= 0.0 ? config_.wmax
                      : std::min(config_.wmax, alpha / slackGHz);
  return matching + beta * healthRatio - config_.wearGamma * wear;
}

Mapping HayatPolicy::map(const PolicyContext& context) {
  const telemetry::Span mapSpan("policy.hayat.map");
  if (telemetry::enabled()) decisionsTotal.add();
  HAYAT_REQUIRE(context.chip && context.mix && context.thermal &&
                    context.leakage,
                "incomplete policy context");
  const int n = context.chip->coreCount();
  const int maxOn = std::max(
      1, static_cast<int>(n * (1.0 - context.minDarkFraction) + 1e-9));
  const std::vector<int> parallelism =
      chooseParallelism(*context.mix, maxOn);

  Mapping mapping(n);
  placeThreads(context, runnableThreads(*context.mix, parallelism), mapping);
  return mapping;
}

Mapping HayatPolicy::placeApplication(const PolicyContext& context,
                                      const Mapping& existing, int appIndex,
                                      int activeThreads) {
  HAYAT_REQUIRE(context.chip && context.mix && context.thermal &&
                    context.leakage,
                "incomplete policy context");
  HAYAT_REQUIRE(appIndex >= 0 &&
                    appIndex < static_cast<int>(context.mix->applications.size()),
                "application index out of range");
  const Application& app =
      context.mix->applications[static_cast<std::size_t>(appIndex)];
  const int k = activeThreads > 0 ? activeThreads : app.maxThreads();
  HAYAT_REQUIRE(k >= app.minThreads() && k <= app.maxThreads(),
                "active thread count outside the malleable range");

  const int n = context.chip->coreCount();
  const int maxOn = std::max(
      1, static_cast<int>(n * (1.0 - context.minDarkFraction) + 1e-9));
  HAYAT_REQUIRE(existing.assignedCount() + k <= maxOn,
                "arriving application would violate the dark-silicon "
                "budget");

  std::vector<RunnableThread> arriving;
  for (int t = 0; t < k; ++t) {
    RunnableThread rt;
    rt.ref = {appIndex, t};
    rt.minFrequency = app.minFrequencyAt(t, k);
    rt.averagePower = app.thread(t).averagePower();
    rt.peakPower = app.thread(t).peakPower();
    rt.averageDuty = app.thread(t).averageDuty();
    arriving.push_back(rt);
  }

  Mapping mapping = existing;
  placeThreads(context, std::move(arriving), mapping);
  return mapping;
}

void HayatPolicy::placeThreads(const PolicyContext& context,
                               std::vector<RunnableThread> threads,
                               Mapping& mapping) {
  const Chip& chip = *context.chip;
  const int n = chip.coreCount();

  // Work-list order: most demanding threads first — they have the fewest
  // feasible cores, so they choose before the pool thins out.
  std::sort(threads.begin(), threads.end(),
            [](const RunnableThread& a, const RunnableThread& b) {
              return a.minFrequency > b.minFrequency;
            });

  const ThermalPredictor predictor(*context.thermal, *context.leakage,
                                   config_.leakageIterations);
  const HealthEstimator estimator(chip.agingTable(), config_.dutyPolicy);

  // Pre-warm every buffer the placement loop touches so the loop itself
  // is allocation-free in steady state (the DESIGN.md §3.10 contract; the
  // delta is tracked in hayatPlacementLoopAllocs).  The baseline reflects
  // whatever is already running in the mapping; the aging snapshot
  // captures the chip's current delay factors, which cannot change while
  // the policy deliberates, so every candidate reads from the copy.
  // refreshBaseline here is the one full fixed-point anchor of the
  // round — every committed placement afterwards folds in as a rank-1
  // delta (ThermalPredictor::commitPlacement, §3.11).
  Scratch& sc = scratch_;
  mapping.averageDynamicPowerInto(*context.mix, context.nominalFrequency,
                                  sc.baseline.dynamicPower);
  sc.baseline.poweredOn.assign(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i)
    sc.baseline.poweredOn[static_cast<std::size_t>(i)] = mapping.coreBusy(i);
  predictor.refreshBaseline(sc.baseline, sc.predictScratch);
  sc.snapshot.capture(estimator, context.health());
  sc.candidates.reserve(static_cast<std::size_t>(n));
  sc.evaluated.reserve(static_cast<std::size_t>(n));
  sc.survivorCores.reserve(static_cast<std::size_t>(n));
  sc.survivorTemp.reserve(static_cast<std::size_t>(n));
  sc.healthUb.resize(static_cast<std::size_t>(n));
  sc.healthOrder.resize(static_cast<std::size_t>(n));
  sc.rejectCores.reserve(static_cast<std::size_t>(n));
  sc.rejectDelta.reserve(static_cast<std::size_t>(n));
  sc.rejectFloor.reserve(static_cast<std::size_t>(n));
  sc.rejectOrder.resize(static_cast<std::size_t>(n));
  lastDecisions_.clear();
  lastDecisions_.reserve(threads.size());
  // Telemetry totals are accumulated locally and emitted after the loop
  // so sharded-counter bootstrap cannot charge the alloc contract.
  std::uint64_t candidatesFeasibleTotal = 0;
  std::uint64_t guardTotals[4] = {};  // indexed by GuardPath
  int commitsSinceAnchor = 0;
  const std::uint64_t allocsBefore = heapAllocationCount();

  for (const RunnableThread& t : threads) {
    // Candidate cores: idle and fast enough at their current age; if the
    // requirement is infeasible everywhere, fall back to all idle cores
    // (best effort — the shortfall surfaces as a throughput violation).
    sc.candidates.clear();
    for (int c = 0; c < n; ++c) {
      if (mapping.coreBusy(c)) continue;
      if (context.observedFmax(c) >= t.minFrequency)
        sc.candidates.push_back(c);
    }
    if (sc.candidates.empty()) {
      for (int c = 0; c < n; ++c)
        if (!mapping.coreBusy(c)) sc.candidates.push_back(c);
    }
    HAYAT_REQUIRE(!sc.candidates.empty(), "no idle core left");
    const int feasible = static_cast<int>(sc.candidates.size());
    candidatesFeasibleTotal += static_cast<std::uint64_t>(feasible);

    // --- Evaluate candidates (Algorithm 1 lines 5-20). ---
    // Two passes: the thermal what-if and Tsafe guard per candidate
    // first, then one batched health estimate over the survivors so
    // their inverse solves interleave (AgingTable::advanceDelayFactorMany).
    // Candidates touch no shared floating-point state, so reordering
    // their health estimates after all predictions leaves every result
    // bitwise-unchanged.
    std::vector<HayatCandidate>& s = sc.evaluated;
    s.clear();
    sc.survivorCores.clear();
    sc.survivorTemp.clear();
    sc.rejectCores.clear();
    sc.rejectDelta.clear();
    sc.rejectFloor.clear();
    const double* baseTemps = sc.baseline.temperatures.data();
    const auto hotIdx =
        static_cast<std::size_t>(sc.baseline.temperatureMaxIndex);
    for (int cand : sc.candidates) {
      const Hertz freq = operatingFrequency(context, cand, t.minFrequency);
      const Watts addedPower =
          t.averagePower * (freq / context.nominalFrequency);

      // Lines 9-13: the Tsafe guard, evaluated at the thread's
      // *worst-case phase power* (the paper's estimator supports
      // worst-case settings, Section IV-C): an average-power check would
      // admit placements whose phase peaks trip the DTM all epoch long.
      // evaluateCandidate decides the guard from O(1) bounds in the
      // common case and returns the closed-form average-power fields.
      const Watts peakPower =
          std::max(t.peakPower, t.averagePower) *
          (freq / context.nominalFrequency);
      const ThermalPredictor::CandidateDecision decision =
          predictor.evaluateCandidate(sc.baseline, cand, addedPower,
                                      peakPower, context.tsafe);
      ++guardTotals[static_cast<int>(decision.guard)];
      if (!decision.admitted) {  // line 12-13
        // Stash the already-computed average-power delta and an O(1)
        // peak floor (the candidate's own and hot-spot terms of the
        // walk) in case every candidate trips Tsafe and the fallback
        // scan needs this round's rejects.
        const double* kcol = predictor.kernelColumn(cand);
        sc.rejectCores.push_back(cand);
        sc.rejectDelta.push_back(decision.deltaNext);
        sc.rejectFloor.push_back(
            std::max(decision.candidateNext,
                     baseTemps[hotIdx] + kcol[hotIdx] * decision.deltaNext));
        continue;
      }

      HayatCandidate record;
      record.core = cand;
      record.candidateNextHealth = 0.0;  // filled by the batched pass
      record.averageNextTemperature = decision.sumNext / n;
      record.weight = 0.0;
      s.push_back(record);
      sc.survivorCores.push_back(cand);
      sc.survivorTemp.push_back(decision.candidateNext);
    }

    // Lines 15-23 lazily: aging is monotone (H_next <= H_now, the aging
    // table's advance never lowers the delay factor), so with beta >= 0
    // `weightOf(slack, 1, ...)` bounds a survivor's weight from above.
    // Survivors are examined in descending bound order and evaluation
    // stops once every remaining bound is strictly below the best exact
    // weight — no later survivor can beat it, and a bound *equal* to the
    // best weight is still examined because the cooler-average tie-break
    // could prefer it.  Health lookups run in kHealthChunk batches so
    // the inverse solves keep interleaving; chunking and order leave
    // every estimate bitwise-unchanged (nextHealthMany is element-wise).
    // The order is a heap popped one examined survivor at a time: only a
    // handful are examined before the bound stops the scan, and the key
    // (bound descending, then index ascending) is a strict total order,
    // so the pop sequence is exactly the fully sorted sequence.
    const int survivors = static_cast<int>(sc.survivorCores.size());
    const double betaNow = context.elapsedYears >= config_.lateAgingOnset
                               ? config_.lateBeta
                               : config_.earlyBeta;
    const double ubRatio = betaNow >= 0.0 ? 1.0 : 0.0;
    for (int i = 0; i < survivors; ++i) {
      const int cand = sc.survivorCores[static_cast<std::size_t>(i)];
      const double slackGHz =
          (context.observedFmax(cand) - t.minFrequency) / 1e9;
      sc.healthUb[static_cast<std::size_t>(i)] =
          weightOf(slackGHz, ubRatio, context.elapsedYears,
                   context.observedWearOf(cand));
      sc.healthOrder[static_cast<std::size_t>(i)] = i;
    }
    const auto popsLater = [&sc](int a, int b) {
      const double ua = sc.healthUb[static_cast<std::size_t>(a)];
      const double ub = sc.healthUb[static_cast<std::size_t>(b)];
      if (ua != ub) return ua < ub;
      return a > b;
    };
    int* const heapBegin = sc.healthOrder.data();
    int* heapEnd = heapBegin + survivors;
    std::make_heap(heapBegin, heapEnd, popsLater);
    int bestIdx = -1;
    double bestWeight = 0.0;
    double bestAvgT = 0.0;
    while (heapEnd != heapBegin) {
      if (bestIdx >= 0 &&
          sc.healthUb[static_cast<std::size_t>(*heapBegin)] < bestWeight)
        break;
      const int chunk =
          std::min(kHealthChunk, static_cast<int>(heapEnd - heapBegin));
      int chunkIdx[kHealthChunk];
      int chunkCores[kHealthChunk];
      double chunkTemp[kHealthChunk];
      double chunkHealth[kHealthChunk];
      for (int j = 0; j < chunk; ++j) {
        std::pop_heap(heapBegin, heapEnd, popsLater);
        --heapEnd;
        chunkIdx[j] = *heapEnd;
        const auto idx = static_cast<std::size_t>(chunkIdx[j]);
        chunkCores[j] = sc.survivorCores[idx];
        chunkTemp[j] = sc.survivorTemp[idx];
      }
      sc.snapshot.nextHealthMany(chunkCores, chunkTemp, t.averageDuty,
                                 context.epochYears, chunk, chunkHealth);
      for (int j = 0; j < chunk; ++j) {
        const int idx = chunkIdx[j];
        HayatCandidate& record = s[static_cast<std::size_t>(idx)];
        const int cand = record.core;
        const double hNext = chunkHealth[j];
        const double hNow = sc.snapshot.currentHealth(cand);
        record.candidateNextHealth = hNext;
        const double slackGHz =
            (context.observedFmax(cand) - t.minFrequency) / 1e9;
        record.weight =
            weightOf(slackGHz, hNext / hNow, context.elapsedYears,
                     context.observedWearOf(cand));
        // Lines 22-23 folded in: best weight first, cooler average as
        // the tie-break, earlier bound order on exact ties.
        if (bestIdx < 0 || record.weight > bestWeight ||
            (record.weight == bestWeight &&
             record.averageNextTemperature < bestAvgT)) {
          bestIdx = idx;
          bestWeight = record.weight;
          bestAvgT = record.averageNextTemperature;
        }
      }
    }

    if (s.empty()) {
      // Every candidate trips Tsafe: take the thermally least-bad idle
      // core — the exact argmin of the average-power what-if peak (ties:
      // lowest core); the DTM will police the consequence.  (The paper's
      // algorithm cannot leave a runnable thread unmapped.)  The rejects
      // stash holds every candidate of the round with the delta and the
      // O(1) peak floor the main sweep already computed; scanning in
      // ascending floor order means that once the floor exceeds the
      // incumbent minimum, no later candidate can beat or tie it, so the
      // saturated-chip regime — where this branch runs for most
      // placements — settles after a handful of full peak walks and no
      // repeated leakage evaluations.  The floor order is a heap popped
      // only as far as the scan gets; its key (floor ascending, then
      // index ascending) is a strict total order, so the pops follow the
      // sorted order.
      const int fcount = static_cast<int>(sc.rejectCores.size());
      for (int i = 0; i < fcount; ++i)
        sc.rejectOrder[static_cast<std::size_t>(i)] = i;
      const auto popsLaterFloor = [&sc](int a, int b) {
        const double ka = sc.rejectFloor[static_cast<std::size_t>(a)];
        const double kb = sc.rejectFloor[static_cast<std::size_t>(b)];
        if (ka != kb) return ka > kb;
        return a > b;
      };
      int* const rejectBegin = sc.rejectOrder.data();
      int* rejectEnd = rejectBegin + fcount;
      std::make_heap(rejectBegin, rejectEnd, popsLaterFloor);
      int coolest = -1;
      double bestT = std::numeric_limits<double>::infinity();
      while (rejectEnd != rejectBegin) {
        if (coolest >= 0 &&
            sc.rejectFloor[static_cast<std::size_t>(*rejectBegin)] > bestT)
          break;
        std::pop_heap(rejectBegin, rejectEnd, popsLaterFloor);
        --rejectEnd;
        const auto idx = static_cast<std::size_t>(*rejectEnd);
        const int cand = sc.rejectCores[idx];
        // Bounded variant of the main sweep's fused pass at average
        // power for both levels: the exact max_i of the average-power
        // what-if vector when it is at or below the incumbent, +inf (no
        // update possible) when a prefix of the walk already exceeds it.
        const double tMax = predictor.candidateMaxPeakBelow(
            sc.baseline, cand, sc.rejectDelta[idx], bestT);
        if (tMax < bestT) {
          bestT = tMax;
          coolest = cand;
        } else if (tMax == bestT && cand < coolest) {
          coolest = cand;  // the core-order scan would have found it first
        }
      }
      s.push_back(HayatCandidate{coolest, 0.0, 0.0, bestT});
      bestIdx = 0;
    }

    const HayatCandidate& winner = s[static_cast<std::size_t>(bestIdx)];
    const int chosen = winner.core;
    const Hertz freq = operatingFrequency(context, chosen, t.minFrequency);
    mapping.assign(t.ref, chosen, freq, t.minFrequency);

    // Fold the placement into the predictor baseline as a rank-1 delta:
    // the committed profile is bitwise the what-if the sort just scored
    // (§3.11), and subsequent threads see it — O(n) instead of the
    // O(n²·sweeps) full refresh.
    predictor.commitPlacement(sc.baseline, chosen,
                              t.averagePower *
                                  (freq / context.nominalFrequency));
    if (++commitsSinceAnchor >= kBaselineAnchorInterval) {
      // Periodic full re-anchor: the folds' neglected leakage
      // re-coupling must not compound unbounded across a long round.
      predictor.refreshBaseline(sc.baseline, sc.predictScratch);
      commitsSinceAnchor = 0;
    }
    lastDecisions_.push_back(
        HayatPlacementDecision{chosen, winner.weight, feasible});
  }

  const std::uint64_t loopAllocs = heapAllocationCount() - allocsBefore;
  placementLoopAllocs.fetch_add(loopAllocs, std::memory_order_relaxed);
  if (telemetry::enabled() && loopAllocs > 0)
    placementAllocsTotal.add(loopAllocs);
  if (telemetry::enabled()) {
    candidatesTotal.add(candidatesFeasibleTotal);
    // Which branch of the Tsafe guard decided each candidate
    // (guardTotals is indexed in ThermalPredictor::GuardPath order).
    selfRejectTotal.add(guardTotals[0]);
    hotRejectTotal.add(guardTotals[1]);
    boundAdmitTotal.add(guardTotals[2]);
    grayWalkTotal.add(guardTotals[3]);
  }
}

}  // namespace hayat
