// Scalar references for the ThermalPredictor fast paths, kept on the
// test side: the unfused per-candidate reductions Algorithm 1 is defined
// by, and the row-order fixed point.  The library's fast paths are
// pinned against these bit for bit (tests/test_hayat_policy.cpp), and
// the candidate reference itself against the materialized what-if vectors
// (PredictorFixture.FusedCandidateStatsBitwiseMatchUnfused in
// tests/test_runtime.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "power/leakage.hpp"
#include "runtime/thermal_predictor.hpp"
#include "thermal/thermal_model.hpp"

namespace hayat::testref {

/// The three reductions Algorithm 1 needs per candidate.
struct CandidateStats {
  double sumNext = 0.0;        ///< sum_i T_i with `addedPower` placed
  double maxPeak = 0.0;        ///< max(0, max_i T_i) with `peakPower` placed
  double candidateNext = 0.0;  ///< the candidate's own T under addedPower
};

/// Plain sequential evaluation of one candidate: the gated->on leakage
/// jump at the baseline temperature added to both powers, the
/// closed-form sum (temperatureSum + deltaNext * columnSum), and a
/// scalar index-order max over the whole kernel column.
inline CandidateStats candidateStats(
    const ThermalPredictor& predictor, const LeakageModel& leakage,
    const ThermalPredictor::Baseline& baseline, int candidateCore,
    Watts addedPower, Watts peakPower) {
  const int n = predictor.coreCount();
  const auto c = static_cast<std::size_t>(candidateCore);
  double jump = 0.0;
  if (!baseline.poweredOn[c]) {
    jump = leakage.coreLeakageOn(candidateCore, baseline.temperatures[c]) -
           leakage.coreLeakageGated();
  }
  const double deltaNext = addedPower + jump;
  const double deltaPeak = peakPower + jump;
  const double* base = baseline.temperatures.data();
  const double* col = predictor.kernelColumn(candidateCore);

  CandidateStats stats;
  stats.sumNext = baseline.temperatureSum +
                  deltaNext * predictor.columnSum(candidateCore);
  for (int i = 0; i < n; ++i)
    stats.maxPeak = std::max(stats.maxPeak, base[i] + col[i] * deltaPeak);
  stats.candidateNext = base[c] + col[c] * deltaNext;
  return stats;
}

/// ThermalPredictor::predictInto as a row-order product: the same
/// leakage-correction sweeps, each superposition one serial dot product
/// per row of the row-major influence matrix.
inline Vector rowOrderPredict(const ThermalModel& thermal,
                              const LeakageModel& leakage,
                              int leakageIterations,
                              const Vector& dynamicPower,
                              const std::vector<bool>& poweredOn) {
  const Matrix& k = thermal.coreInfluenceMatrix();
  const int n = thermal.coreCount();
  const Kelvin ambient = thermal.config().ambient;
  Vector out(static_cast<std::size_t>(n), ambient);
  Vector total(static_cast<std::size_t>(n));
  for (int sweep = 0; sweep <= leakageIterations; ++sweep) {
    for (int i = 0; i < n; ++i) {
      const auto s = static_cast<std::size_t>(i);
      total[s] = dynamicPower[s] + leakage.coreLeakage(i, out[s], poweredOn[s]);
    }
    for (int i = 0; i < n; ++i) {
      double acc = ambient;
      for (int j = 0; j < n; ++j)
        acc += k(i, j) * total[static_cast<std::size_t>(j)];
      out[static_cast<std::size_t>(i)] = acc;
    }
  }
  return out;
}

}  // namespace hayat::testref
