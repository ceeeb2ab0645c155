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
// therefore reads only the ThermalModel's column-major influence profile
// (transposed kernel + per-column aggregates, built once per model, so
// constructing a predictor per placement round costs O(1)); the full
// fixed point sweeps the same transpose in register tiles, and a
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
  /// Bitwise-identical to predict().  Each sweep runs column by column
  /// over the transposed kernel in register tiles of eight rows, summing
  /// every row in the row dot product's order (DESIGN.md §3.11), so the
  /// result is bitwise the row-order product.
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

  /// Which branch of evaluateCandidate decided the Tsafe guard.
  enum class GuardPath {
    SelfReject,  ///< the candidate's own peak term trips (or tsafe <= 0)
    HotReject,   ///< the baseline hot spot's peak term trips
    BoundAdmit,  ///< the O(1) upper bound clears tsafe
    GrayWalk,    ///< between the bounds: the column walk decided
  };

  /// The guard + closed-form fields of one Algorithm-1 candidate without
  /// the O(n) peak walk in the common case.
  struct CandidateDecision {
    /// The what-if peak max(0, max_i base[i] + col[i] * deltaPeak) is
    /// below tsafe.
    bool admitted = false;
    /// Closed-form sum of the average-power what-if temperatures:
    /// temperatureSum + deltaNext * columnSum.
    double sumNext = 0.0;
    /// The candidate's own average-power what-if temperature.
    double candidateNext = 0.0;
    /// The average-power what-if delta (addedPower plus the gated->on
    /// leakage jump at the baseline temperature).  Handing it back lets
    /// the caller re-query this candidate at average power
    /// (candidateMaxPeakBelow) without a second leakage evaluation —
    /// the jump is the expensive exp() chain of the per-candidate cost.
    double deltaNext = 0.0;
    GuardPath guard = GuardPath::SelfReject;
  };

  /// Fused Algorithm-1 lines 8-13 for one candidate: the exact boolean
  /// `peak >= tsafe` for the worst-case-phase what-if peak, decided, in
  /// the common case, from O(1) bounds — the candidate's own peak
  /// temperature (a term of the max) rejects, and
  /// max(self term, temperatureMax + columnMaxOff * deltaPeak), an upper
  /// bound on every term, admits.  Only the gray zone between the bounds
  /// walks the column, early-exiting at the first block at or above
  /// tsafe.  sumNext/candidateNext share one leakage-jump evaluation
  /// with the guard.  Pinned against a scalar full-walk reference, field
  /// for field, by tests/test_hayat_policy.cpp.
  CandidateDecision evaluateCandidate(const Baseline& baseline,
                                      int candidateCore, Watts addedPower,
                                      Watts peakPower, Kelvin tsafe) const;

  /// The fallback path's bounded what-if peak for a candidate whose
  /// delta (CandidateDecision::deltaNext — average power plus leakage
  /// jump) was already computed this round: the exact average-power
  /// what-if peak max(0, max_i base[i] + col[i] * delta) when it is at
  /// or below `bound`, +infinity otherwise.  A running max only
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
