// The Hayat run-time aging-management policy (Section IV, Algorithm 1).
//
// For every runnable thread, Hayat evaluates each candidate core:
//
//   line  8:  predictTemperature  — incremental superposition prediction
//             of the chip thermal profile with the candidate placed,
//   line 12:  discard candidates that would violate T_i < Tsafe,
//   line 15:  estimateNextHealth  — 3D-aging-table lookup of the
//             candidate's end-of-epoch health under the predicted
//             temperature and the thread's duty cycle,
//   line 17-19: aggregate Tavg/Tmax/Havg for the candidate record,
//   line 22:  sort candidates by the weighting function (Eq. 9) and
//   line 23:  assign the thread to the best candidate.
//
// Weighting (Eq. 9):
//
//   w = cap(wmax, alpha / (fmax_i,t - freq)) + beta * H_next / H_t
//
// The first term implements frequency matching: cores whose aged fmax
// barely exceeds the thread's requirement score high, so fast cores are
// *preserved* — kept dark for later life or for deadline-critical
// single-threaded work (Section II's "secondary effect").  The second
// term prefers placements that degrade the candidate least — cool,
// thermally isolated cores.  The paper prints `max(wmax, ...)` but
// describes the term as "limited to a certain maximum weight wmax"; we
// implement the cap the prose describes.  Early-aging runs balance-heavy
// coefficients (alpha 0.6, beta 1.0) and late-aging runs matching-heavy
// ones (alpha 4, beta 0.3), switching at `lateAgingOnset` (Section V).
//
// The Dark Core Map falls out of the assignment: cores Hayat leaves
// without threads are power-gated, and because every candidate passed the
// Tsafe check, the resulting DCM keeps Tpeak < Tsafe by construction.
#pragma once

#include <cstdint>

#include "runtime/health_estimator.hpp"
#include "runtime/mapping.hpp"
#include "runtime/thermal_predictor.hpp"

namespace hayat {

/// Eq. (9) coefficients and mode switching.
struct HayatConfig {
  double earlyAlphaGHz = 0.6;  ///< alpha, in GHz units (Section V: ">1.0 weight at 600 MHz")
  double earlyBeta = 1.0;
  double lateAlphaGHz = 4.0;
  double lateBeta = 0.3;
  double wmax = 10.0;
  /// Elapsed lifetime at which the weighting switches from the
  /// duty-cycle-critical early-aging regime to the temperature-critical
  /// late-aging regime (Fig. 1 discussion).
  Years lateAgingOnset = 3.0;
  DutyPolicy dutyPolicy = DutyPolicy::Known;
  int leakageIterations = 2;  ///< predictor correction sweeps
  /// Optional wear-balancing extension (OFF by default — not part of the
  /// paper's Eq. 9): subtracts wearGamma * consumedLife(candidate) from
  /// the weight, steering work away from cores whose hard-failure budget
  /// is most spent.  Motivated by bench_ablation_mttf, which shows pure
  /// frequency matching concentrates usage on the same tight-match cores.
  double wearGamma = 0.0;
};

/// One evaluated candidate (the struct pushed into list S, line 19).
/// Only fields the selection reads are kept: the weight, the tie-break
/// average temperature, and the health that fed the weight.  The per-
/// candidate Tmax exists only as the Tsafe guard boolean (line 12), so
/// it is never materialized (ThermalPredictor::evaluateCandidate).
struct HayatCandidate {
  int core = -1;
  double weight = 0.0;
  double candidateNextHealth = 0.0;
  double averageNextTemperature = 0.0;
};

/// One committed placement of the most recent map()/placeApplication()
/// call (introspection for tests and the quality bench): which core won,
/// its exact-scored weight, and how many candidates the pruning stage
/// let through.
struct HayatPlacementDecision {
  int core = -1;
  double weight = 0.0;  ///< exact Eq. 9 score of the chosen candidate
  int candidatesFeasible = 0;  ///< idle + fast-enough cores this round
};

/// Algorithm 1.
class HayatPolicy : public MappingPolicy {
 public:
  explicit HayatPolicy(HayatConfig config = {});

  std::string name() const override { return "Hayat"; }

  Mapping map(const PolicyContext& context) override;

  /// The mid-epoch path (Section VI overhead discussion): "In case a new
  /// application starts within an aging epoch (typically in intervals of
  /// several minutes after the previous decision)" only the arriving
  /// application's threads are placed; already-running threads stay where
  /// they are.  `appIndex` selects the arriving application within the
  /// context's mix; `activeThreads` its malleable parallelism (<= its
  /// maxThreads; <= 0 keeps maximum parallelism).  Throws if the addition
  /// would violate the dark-silicon budget.
  Mapping placeApplication(const PolicyContext& context,
                           const Mapping& existing, int appIndex,
                           int activeThreads = -1) override;

  /// Eq. (9) for one candidate (exposed for unit tests): `slackGHz` is
  /// fmax_i,t - freq in GHz, `healthRatio` is H_next / H_t, `wear` the
  /// candidate's consumed-life fraction (0 disables the extension term).
  double weightOf(double slackGHz, double healthRatio, Years elapsed,
                  double wear = 0.0) const;

  const HayatConfig& config() const { return config_; }

  /// Placement decisions of the most recent map()/placeApplication()
  /// call, in commit order.
  const std::vector<HayatPlacementDecision>& lastDecisions() const {
    return lastDecisions_;
  }

 private:
  /// Shared Algorithm-1 core: places `threads` into `mapping` (which may
  /// already hold running threads).
  void placeThreads(const PolicyContext& context,
                    std::vector<RunnableThread> threads, Mapping& mapping);

  /// Buffers reused across map() calls so the candidate loop is
  /// allocation-free in steady state (DESIGN §3.10; tracked by
  /// hayatPlacementLoopAllocs).
  struct Scratch {
    ThermalPredictor::Baseline baseline;
    Vector predictScratch;
    std::vector<int> candidates;
    std::vector<HayatCandidate> evaluated;
    AgingSnapshot snapshot;
    // Tsafe survivors of one placement round; health is estimated
    // lazily in weight-upper-bound order (chunked nextHealthMany calls
    // so the inverse solves still interleave).
    std::vector<int> survivorCores;
    std::vector<double> survivorTemp;
    std::vector<double> healthUb;    ///< per-survivor weight upper bound
    std::vector<int> healthOrder;    ///< survivor indices, a heap popped
                                     ///< bound-descending
    // Tsafe rejects of the round, with the deltas/floors the main sweep
    // already paid for — the all-rejected fallback scan reuses them
    // instead of re-running the leakage jump per candidate.
    std::vector<int> rejectCores;
    std::vector<double> rejectDelta;  ///< CandidateDecision::deltaNext
    std::vector<double> rejectFloor;  ///< O(1) lower bound on the peak
    std::vector<int> rejectOrder;     ///< reject indices, a heap popped
                                      ///< floor-ascending
  };

  HayatConfig config_;
  Scratch scratch_;
  std::vector<HayatPlacementDecision> lastDecisions_;
};

/// Heap allocations observed inside HayatPolicy's per-thread placement
/// loop across the process.  Steady-state contract: after a policy's
/// first map() on a given chip size, the loop must not contribute.
/// Always zero when allocCounterActive() is false.
std::uint64_t hayatPlacementLoopAllocs();

}  // namespace hayat
