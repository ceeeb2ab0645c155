// Offline-generated 3D aging tables (Section IV-B, step 1).
//
// "We generate 3D-aging tables using different temperature and duty cycle
// values for all cores. Note that this is only a start-up time effort for
// a given chip."  The table maps (temperature, duty cycle, age) to the
// core's relative delay factor, evaluated once from the gate-level path
// model; at run time the health estimator performs trilinear lookups
// instead of aging simulations — the lightweight scheme that makes Hayat's
// candidate evaluation feasible online.
//
// The inverse lookup equivalentAge() finds the "current estimated
// position/index in the 3D-aging tables" for a core's measured
// degradation, the anchor from which the estimator follows "a new 3D-path
// inside the table" for the next epoch (Section IV-B, step 3).
#pragma once

#include "aging/delay_model.hpp"
#include "aging/nbti_model.hpp"
#include "common/interp.hpp"

namespace hayat {

/// Grid layout of the aging table.
struct AgingTableConfig {
  Kelvin temperatureMin = 300.0;
  Kelvin temperatureMax = 420.0;
  int temperaturePoints = 13;
  int dutyPoints = 11;        ///< duty axis spans [0, 1]
  Years maxAge = 40.0;        ///< headroom beyond the 10-year evaluation

  /// Runs the scalar reference path (per-lookup grid searches and the
  /// explicit 60-iteration bisection: the batched default's arithmetic,
  /// bitwise) on a table the chip builds for itself (chip.hpp).  Outside
  /// the spec: the spec walk skips it, so it is never hashed, sent to a
  /// worker or cached, and workers run the default.  Sound only because
  /// the A/B tests pin both paths to identical bytes.
  bool scalarReference = false;
};

/// Below this duty cycle an epoch adds no measurable stress; the scalar
/// CoreAgingState::advance and the batched advanceBatch share it.
inline constexpr double kAgingDutyEpsilon = 1e-9;

/// The 3D table with forward (delay factor) and inverse (equivalent age)
/// lookups.
///
/// Run-time callers go through the batched, cursor-cached fast path: a
/// Cursor remembers the last grid cell per tracked core, the forward
/// lookups skip the axis searches when the cell still matches, and the
/// inverse lookup *replays* the reference bisection on a (T, d)-pinned
/// table line — identical midpoints and predicates, evaluated through
/// four cached rows instead of full grid searches — so every fast result
/// is bitwise equal to the scalar reference
/// (AgingTableConfig::scalarReference).
class AgingTable {
 public:
  /// Per-core cached grid-cell indices for the fast lookups.
  using Cursor = TrilinearGrid::Cursor;

  /// Populates the table from the gate-level model.  This is the
  /// "start-up time effort": 13 x 11 x 14 cells, each bitwise the
  /// path set's delayFactor, filled by CorePathSet::delayFactorGrid with
  /// one alpha-power pow per (cell, path element).
  AgingTable(const NbtiModel& nbti, const CorePathSet& paths,
             const AgingTableConfig& config = {});

  /// Trilinear-interpolated relative delay factor (>= 1) at the given
  /// temperature [K], duty cycle [0,1], and age [years].
  double delayFactor(Kelvin temperature, double duty, Years age) const;

  /// Batched forward lookup: out[i] = delayFactor(T[i], duty[i], age[i])
  /// served through per-element cursors (null skips the caching).
  void delayFactorBatch(const double* temperature, const double* duty,
                        const double* age, int n, double* out,
                        Cursor* cursors) const;

  /// Inverse lookup: the age under constant (T, d) at which the table
  /// reaches `targetDelayFactor`.  Returns 0 if the target is below the
  /// year-0 value and clamps to the table's maxAge if beyond it.
  /// Requires duty > 0 (a zero-stress condition never ages).
  Years equivalentAge(Kelvin temperature, double duty,
                      double targetDelayFactor) const;

  /// equivalentAge through a caller-held cursor (the run-time path).
  Years equivalentAge(Kelvin temperature, double duty,
                      double targetDelayFactor, Cursor& cursor) const;

  /// The epoch-advance kernel: ages a core with current delay factor
  /// `currentDelayFactor` by `duration` years at constant (T, d) and
  /// returns the new delay factor (monotone — never below the current
  /// one).  Equivalent to equivalentAge + delayFactor at the stepped age
  /// with both lookups sharing one cell setup; bitwise-identical to the
  /// scalar pair.
  double advanceDelayFactor(Kelvin temperature, double duty, Years duration,
                            double currentDelayFactor, Cursor& cursor) const;

  /// Batched epoch advance over n cores: delayFactor[i] becomes the aged
  /// value under (temperature[i], duty[i]) for `duration` years.  Cores
  /// with duration == 0 or duty below kAgingDutyEpsilon are untouched —
  /// exactly the CoreAgingState::advance skip.  `cursors` may be null.
  void advanceBatch(const double* temperature, const double* duty, int n,
                    Years duration, double* delayFactor,
                    Cursor* cursors) const;

  /// Gathered advanceDelayFactor over n independent elements:
  /// out[i] = advanceDelayFactor(temperature[i], duty[i], duration,
  /// current[i], cursors[i]), bitwise-identical element for element.
  /// The bisections of up to four elements run interleaved so their
  /// serial probe->compare->probe dependency chains overlap — a pure
  /// instruction-scheduling change: each element still performs its exact
  /// per-element operation sequence on its own lo/hi/hint state.  This is
  /// the policy candidate loop's kernel (every surviving candidate needs
  /// one inverse solve, and the candidates are independent).
  void advanceDelayFactorMany(const double* temperature, const double* duty,
                              Years duration, const double* current, int n,
                              double* out, Cursor* cursors) const;

  /// True when this table runs the scalar reference path.
  bool usesScalarAging() const { return config_.scalarReference; }

  Years maxAge() const { return config_.maxAge; }
  const AgingTableConfig& configuration() const { return config_; }
  const Table3& raw() const { return table_; }

 private:
  Years equivalentAgeScalar(Kelvin temperature, double duty,
                            double targetDelayFactor) const;

  AgingTableConfig config_;
  Table3 table_;
  TrilinearGrid grid_;   ///< cursor-cached view over table_
};

}  // namespace hayat
