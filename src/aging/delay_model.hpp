// Gate-level critical-path delay model (Eq. 8).
//
// The paper's offline flow synthesizes the processor, extracts the top-x%
// critical paths P(Ci), obtains per-gate signal probabilities from
// gate-level simulation, and sums per-element aged delays:
//
//     dD(cp) = sum over logic elements of ( D(le) + dD(le, d, T, y) )
//
// We reproduce that flow with a synthetic netlist: each core carries a set
// of critical paths built from a small standard-cell library (inverter,
// NAND2, NOR2, flip-flop) with representative FO4-scaled delays; each
// element has a signal-probability weight that converts the core-level
// duty cycle into the element's PMOS stress duty.  The per-element delay
// degradation is proportional to its dVth through the alpha-power law —
// the same physics the paper's ngspice estimator captures per cell.
#pragma once

#include <string>
#include <vector>

#include "aging/nbti_model.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace hayat {

/// Standard-cell kinds of the synthetic library.
enum class CellKind { Inverter, Nand2, Nor2, FlipFlop };

/// Human-readable cell name (for table dumps and tests).
std::string cellName(CellKind kind);

/// Un-aged propagation delay of a cell [s] at the 11 nm operating corner
/// (FO4-scaled representative values).
Seconds nominalCellDelay(CellKind kind);

/// One logic element instance on a critical path.
struct LogicElement {
  CellKind kind = CellKind::Inverter;
  Seconds nominalDelay = 0.0;
  /// Signal-probability weight: the element's PMOS stress duty is
  /// weight * coreDuty, clamped to [0, 1].  Captures the gate-level
  /// simulation data of the paper's step (1).
  double dutyWeight = 1.0;
};

/// A critical path: an ordered chain of logic elements.
class CriticalPath {
 public:
  explicit CriticalPath(std::vector<LogicElement> elements);

  /// Sum of un-aged element delays [s].
  Seconds nominalDelay() const { return nominalDelay_; }

  /// Eq. (8): path delay after `age` years at core temperature T and
  /// core-level duty cycle `coreDuty` [s].
  Seconds agedDelay(const NbtiModel& nbti, Kelvin temperature,
                    double coreDuty, Years age) const;

  const std::vector<LogicElement>& elements() const { return elements_; }

 private:
  std::vector<LogicElement> elements_;
  Seconds nominalDelay_ = 0.0;
};

/// The top-x% critical paths of one core, with the aggregate delay-factor
/// queries the aging-table generator needs.
class CorePathSet {
 public:
  explicit CorePathSet(std::vector<CriticalPath> paths);

  /// Synthesizes a path set statistically shaped like post-synthesis
  /// timing reports: `pathCount` paths of `elementsPerPath` +- 25% cells,
  /// nominal delays within a few percent of each other (they are the
  /// *critical* paths), random cell mix and signal probabilities.
  static CorePathSet synthesize(Rng& rng, int pathCount, int elementsPerPath);

  int pathCount() const { return static_cast<int>(paths_.size()); }
  const CriticalPath& path(int i) const;

  /// Longest un-aged path delay [s] — sets the core's year-0 frequency.
  Seconds nominalDelay() const;

  /// Relative delay increase of the core: max aged path delay divided by
  /// the nominal (un-aged) critical delay.  Always >= 1.
  double delayFactor(const NbtiModel& nbti, Kelvin temperature,
                     double coreDuty, Years age) const;

  /// delayFactor at every point of a temperature x duty x age grid,
  /// row-major with age innermost: entry (i, j, k) is bitwise
  /// delayFactor(nbti, temperatures[i], duties[j], ages[k]).  Each Eq. (7)
  /// factor that depends on one axis alone is evaluated once per axis
  /// point (exp(-1500/T) and Vdd^4 per temperature, each element's
  /// d^(1/6) per duty, y^(1/6) per age), leaving one alpha-power pow per
  /// (cell, element); the products and sums run in delayFactor's order.
  std::vector<double> delayFactorGrid(const NbtiModel& nbti,
                                      const std::vector<double>& temperatures,
                                      const std::vector<double>& duties,
                                      const std::vector<double>& ages) const;

 private:
  std::vector<CriticalPath> paths_;
  Seconds nominalDelay_ = 0.0;
};

}  // namespace hayat
