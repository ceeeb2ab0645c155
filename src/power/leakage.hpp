// Leakage power model with temperature dependence and process variation.
//
// Section V: "the nominal subthreshold leakage of 1.18 W per core and
// remaining leakage of 0.019 W in power-gated mode. ... we apply a
// temperature dependent leakage as implemented in the McPAT simulator
// ... applied on the variation-dependent leakage power to obtain the
// total leakage power."
//
// The McPAT-style temperature dependence used here is the standard
// subthreshold form  I_leak ∝ T^2 exp(-Vth / (n k T / q)), normalized to
// 1.0 at the reference temperature so the paper's 1.18 W nominal applies
// at that reference.  The variation dependence comes from
// VariationMap::coreLeakageMultiplier (Eq. 2).
#pragma once


#include "common/units.hpp"
#include "variation/variation_map.hpp"

namespace hayat {

/// Parameters of the leakage model.
struct LeakageConfig {
  Watts nominalCoreLeakage = 1.18;   ///< per powered core @ reference T
  Watts gatedCoreLeakage = 0.019;    ///< per power-gated core
  Kelvin referenceTemperature = 330.0;  ///< where nominal leakage applies
  Volts nominalVth = 0.40;
  double subthresholdSlopeFactor = 2.5;  ///< n in the subthreshold slope
};

/// Per-core leakage as a function of power state, temperature, and the
/// chip's variation map.
class LeakageModel {
 public:
  /// The variation map must outlive the model.
  LeakageModel(LeakageConfig config, const VariationMap& variation);

  /// Temperature scaling factor, normalized to 1.0 at the reference
  /// temperature (monotonically increasing in T).
  double temperatureFactor(Kelvin temperature) const;

  /// Leakage of core i at temperature T when powered on.
  Watts coreLeakageOn(int core, Kelvin temperature) const;

  /// Leakage of core i when power-gated (dark).  Gated leakage is a fixed
  /// small constant: the sleep transistor decouples the core's varied
  /// logic from the rails, so neither variation nor die temperature
  /// meaningfully modulates it at this magnitude.
  Watts coreLeakageGated() const;

  /// Leakage of core i given its power state psi (Section III).
  Watts coreLeakage(int core, Kelvin temperature, bool poweredOn) const;

  const LeakageConfig& config() const { return config_; }

 private:
  LeakageConfig config_;
  const VariationMap* variation_;
  double referenceFactor_ = 1.0;  ///< the normalizer, unnormalized at T_ref
};

}  // namespace hayat
