// Online chip thermal-profile prediction (Section IV-B step 2, ref [27]).
//
// "Our technique operates in two main steps: (1) Offline learning of
// spatial thermal profiles for different application threads, and
// (2) Online prediction of chip thermal profile by super-positioning
// offline-generated thermal profiles ... along with a correction for
// temperature-dependent leakage."
//
// Because the package RC network is linear, a thread's learned spatial
// profile is exactly the influence-matrix column of the core it runs on
// scaled by its power; superposition over threads is then exact for the
// dynamic component, and a few fixed-point sweeps add the
// temperature-dependent leakage correction.  The predictor also offers the
// incremental what-if query Algorithm 1 needs (predictTemperature, line 8):
// adding one candidate thread updates the prediction with a single
// matrix column, not a re-solve.
//
// Placement-loop fast path (DESIGN.md §3.11): the influence matrix is
// row-major, so a per-candidate column walk strides by n.  The predictor
// therefore reads the ThermalModel's column-major influence profile
// (transposed kernel + per-column aggregates, built once per model, so
// constructing a predictor per placement round costs O(1)), and a
// Baseline carries the canonical sum and max of its temperatures so the
// candidate's tSum reduction is closed-form and the Tsafe guard usually
// decides from O(1) bounds (evaluateCandidate).  Committing a chosen
// placement is a rank-1 fold (commitPlacement): the exact expressions of
// the what-if prediction applied in place, so the committed baseline is
// bitwise the promoted what-if.
#pragma once

#include <cstdint>

#include "common/matrix.hpp"
#include "power/leakage.hpp"
#include "thermal/thermal_model.hpp"

namespace hayat {

/// Steady-state thermal prediction by superposition of learned profiles.
class ThermalPredictor {
 public:
  /// Captures the chip's learned response kernel.  `leakageIterations`
  /// controls the leakage-correction sweeps (2 suffices for < 0.5 K).
  ThermalPredictor(const ThermalModel& thermal, const LeakageModel& leakage,
                   int leakageIterations = 2);

  int coreCount() const;

  /// Full prediction: per-core temperatures for a per-core dynamic power
  /// vector and power states (superposition + leakage correction).
  Vector predict(const Vector& dynamicPower,
                 const std::vector<bool>& poweredOn) const;

  /// Allocation-free predict(): `out` receives the temperatures and
  /// `scratch` holds the per-sweep total-power buffer (both resized once).
  /// Bitwise-identical to predict().
  void predictInto(const Vector& dynamicPower,
                   const std::vector<bool>& poweredOn, Vector& out,
                   Vector& scratch) const;

  /// A reusable baseline for incremental what-if queries.
  struct Baseline {
    Vector dynamicPower;
    std::vector<bool> poweredOn;
    Vector temperatures;  ///< predicted core temperatures
    /// Canonical (index-order) sum of `temperatures`, maintained by every
    /// baseline-producing path so candidate tSum reductions are O(1).
    double temperatureSum = 0.0;
    /// max_i temperatures[i], maintained alongside the sum (max is
    /// order-independent, so every producing path agrees bitwise) — the
    /// O(1) admission bound of evaluateCandidate.
    double temperatureMax = 0.0;
    /// Lowest index attaining temperatureMax (every producer applies the
    /// same strictly-greater index-order rule).  The hot-spot term
    /// base[hot] + col[hot] * delta is a single-multiply lower bound on
    /// any what-if peak — the O(1) rejection both guard paths try first.
    int temperatureMaxIndex = 0;
  };
  Baseline makeBaseline(const Vector& dynamicPower,
                        const std::vector<bool>& poweredOn) const;

  /// Recomputes baseline.temperatures from its (caller-updated)
  /// dynamicPower/poweredOn without allocating — the full fixed-point
  /// anchor a policy runs once per placement round before folding
  /// individual placements in with commitPlacement().  Bitwise-identical
  /// to replacing the baseline with makeBaseline(...).
  void refreshBaseline(Baseline& baseline, Vector& scratch) const;

  /// Algorithm 1's predictTemperature: predicted temperatures after
  /// placing an additional load of `addedPower` on `candidateCore`
  /// (powering it on if dark).  One kernel column + a leakage touch-up —
  /// the cheap path that makes per-candidate evaluation feasible online.
  Vector predictWithCandidate(const Baseline& baseline, int candidateCore,
                              Watts addedPower) const;

  /// Allocation-free predictWithCandidate(); bitwise-identical.
  void predictWithCandidateInto(const Baseline& baseline, int candidateCore,
                                Watts addedPower, Vector& out) const;

  /// Folds a chosen placement into the baseline as a rank-1 delta: the
  /// candidate core (which must be dark) starts drawing `addedPower`, and
  /// every temperature moves by its kernel-column response.  The fold
  /// evaluates the *same expressions in the same order* as
  /// predictWithCandidateInto, so afterwards baseline.temperatures is
  /// bitwise-identical to the what-if prediction the caller just scored —
  /// the policy commits exactly the profile it chose (pinned by
  /// tests/test_hayat_policy.cpp).  Unlike refreshBaseline this is O(n),
  /// not O(n²): the leakage-temperature re-coupling of the other cores is
  /// the same second-order effect the what-if path already approximates
  /// away, and stays bounded by the full refresh (also pinned, with a
  /// tolerance, by the same tests).
  void commitPlacement(Baseline& baseline, int candidateCore,
                       Watts addedPower) const;

  /// The three reductions Algorithm 1 needs per candidate, in one fused
  /// pass over the kernel column and without materializing either
  /// temperature vector.
  struct CandidateStats {
    double sumNext = 0.0;        ///< sum_i T_i with `addedPower` placed
    double maxPeak = 0.0;        ///< max_i T_i with `peakPower` placed
    double candidateNext = 0.0;  ///< the candidate's own T under addedPower
  };

  /// Fuses the average- and worst-case-phase what-if predictions with the
  /// policy's tSum / tMax reductions.  sumNext is closed-form
  /// (temperatureSum + delta * columnSum — superposition is linear, so
  /// the sum of the predicted vector is one multiply-add), and maxPeak is
  /// a 4-lane blocked walk over the contiguous transposed kernel column;
  /// max is order-independent, so the blocked walk is bitwise-identical
  /// to the scalar reference (predictCandidateStatsReference, pinned
  /// element-for-element by tests/test_hayat_policy.cpp).
  CandidateStats predictCandidateStats(const Baseline& baseline,
                                       int candidateCore, Watts addedPower,
                                       Watts peakPower) const;

  /// Unblocked scalar reference for predictCandidateStats: identical
  /// expressions, plain sequential max.  The A/B anchor the blocked walk
  /// is pinned against — not a fallback, there is no flag.
  CandidateStats predictCandidateStatsReference(const Baseline& baseline,
                                                int candidateCore,
                                                Watts addedPower,
                                                Watts peakPower) const;

  /// The guard + closed-form fields of one Algorithm-1 candidate without
  /// the O(n) maxPeak walk in the common case.
  struct CandidateDecision {
    bool admitted = false;       ///< predictCandidateStats().maxPeak < tsafe
    double sumNext = 0.0;        ///< bitwise CandidateStats::sumNext
    double candidateNext = 0.0;  ///< bitwise CandidateStats::candidateNext
    /// The average-power what-if delta (addedPower plus the gated->on
    /// leakage jump at the baseline temperature).  Handing it back lets
    /// the caller re-query this candidate at average power
    /// (candidateMaxPeakBelow) without a second leakage evaluation —
    /// the jump is the expensive exp() chain of the per-candidate cost.
    double deltaNext = 0.0;
  };

  /// Fused Algorithm-1 lines 8-13 for one candidate: the exact boolean
  /// `predictCandidateStats(...).maxPeak >= tsafe` decided, in the common
  /// case, from O(1) bounds — the candidate's own peak temperature (a
  /// term of the max) rejects, and
  /// max(self term, temperatureMax + columnMaxOff * deltaPeak), an upper
  /// bound on every term, admits.  Only the gray zone between the bounds
  /// walks the column, early-exiting at the first element at or above
  /// tsafe.  The returned sumNext/candidateNext are the same closed-form
  /// expressions as predictCandidateStats (one shared leakage-jump
  /// evaluation), so an admitted candidate scores bitwise-identically to
  /// the full-stats path (pinned by tests/test_hayat_policy.cpp).
  CandidateDecision evaluateCandidate(const Baseline& baseline,
                                      int candidateCore, Watts addedPower,
                                      Watts peakPower, Kelvin tsafe) const;

  /// The fallback path's bounded what-if peak for a candidate whose
  /// delta (CandidateDecision::deltaNext — average power plus leakage
  /// jump) was already computed this round: the exact
  /// predictCandidateStats(baseline, c, power, power).maxPeak when it is
  /// at or below `bound`, +infinity otherwise.  A running max only
  /// grows, so the walk stops at the first prefix already above the
  /// bound — any value the caller actually consumes (peaks at or below
  /// the incumbent, including exact ties) is bitwise the full walk's
  /// (max is order-independent, and the 0-clamp is folded in as the
  /// start value).
  double candidateMaxPeakBelow(const Baseline& baseline, int candidateCore,
                               double delta, double bound) const;

  /// Kernel column c as a contiguous row of the transposed influence
  /// matrix (K(0,c) ... K(n-1,c)).
  const double* kernelColumn(int c) const;

  /// Sum_i K(i, c) in index order — the closed-form tSum ingredient.
  double columnSum(int c) const;

 private:
  const ThermalModel* thermal_;
  const LeakageModel* leakage_;
  int leakageIterations_;
  const Matrix* kernel_;  ///< influence matrix (owned by the ThermalModel)
  /// Column-major kernel + per-column aggregates, owned by the
  /// ThermalModel (built once per model, shared by every predictor).
  const ThermalModel::InfluenceProfile* profile_;
};

/// Cumulative wall-clock nanoseconds spent maintaining prediction
/// baselines (refreshBaseline / makeBaseline / commitPlacement) across
/// the process — the bench breakdown's explicit "baseline maintenance"
/// share of the policy bucket (always ticking, like lifetimePhaseNanos).
std::uint64_t predictorBaselineNanos();
void resetPredictorBaselineNanos();

}  // namespace hayat
