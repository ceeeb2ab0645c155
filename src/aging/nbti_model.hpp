// NBTI-induced threshold-voltage shift and delay degradation.
//
// Implements the paper's reaction-diffusion model (Eq. 7):
//
//     dVth = 0.05 * exp(-1500 / T) * Vdd^4 * y^(1/6) * d^(1/6)   [V]
//
// with T in kelvin, Vdd in volts, y the transistor age in years, and d
// the duty cycle (stress fraction).  The paper scales its 45 nm data "to
// 11 nm by extrapolation for dVth using the scaling factors provided by
// Intel"; the proprietary factor is represented by `techScale`
// (constants::kTechAgingScale), calibrated against Fig. 1(b) — see
// DESIGN.md §1.
//
// Delay maps from dVth through the Sakurai-Newton alpha-power law
// D ∝ Vdd / (Vdd - Vth)^alpha, giving the relative delay factor
//
//     delayFactor = ((Vdd - Vth0) / (Vdd - Vth0 - dVth))^alpha  >= 1.
//
// The y^(1/6) power makes aging history-composable through an *effective
// age*: a device whose accumulated dVth equals the model value at
// (T, d, y_eq) continues aging as if it were y_eq years old under the new
// conditions.  equivalentAge() inverts the model in closed form, which is
// how the epoch manager accumulates aging across epochs with differing
// temperature / duty profiles (Fig. 4).
#pragma once

#include "common/units.hpp"

namespace hayat {

/// Parameters of the NBTI + delay model.
struct NbtiConfig {
  Volts vdd = 1.13;         ///< supply voltage (Section V)
  Volts nominalVth = 0.40;  ///< un-aged threshold voltage
  double techScale = 62.0;  ///< 45 nm -> 11 nm dVth extrapolation factor
  double alphaPower = 1.3;  ///< alpha-power-law exponent
  double timeExponent = 1.0 / 6.0;  ///< y and d exponent of Eq. (7)
};

/// Eq. (7) evaluator with closed-form effective-age inversion.
class NbtiModel {
 public:
  explicit NbtiModel(NbtiConfig config = {});

  /// Eq. (7) threshold shift [V]. age >= 0 years, duty in [0, 1].
  Volts deltaVth(Kelvin temperature, double duty, Years age) const;

  /// The (T, d)-dependent prefactor K with dVth = K * y^(1/6).
  double stressPrefactor(Kelvin temperature, double duty) const;

  /// The temperature part of K: techScale * 0.05 * exp(-1500 / T) *
  /// Vdd^4, so K = temperatureFactor(T) * d^(1/6) bitwise.  The aging
  /// table's fill evaluates it once per temperature point.
  double temperatureFactor(Kelvin temperature) const;

  /// Relative delay D(dVth)/D(0) >= 1 via the alpha-power law.
  double delayFactorFromDeltaVth(Volts dVth) const;

  /// Composed: relative delay after `age` years at (T, d).
  double delayFactor(Kelvin temperature, double duty, Years age) const;

  /// Inverts Eq. (7): the age at which conditions (T, d) would have
  /// produced the given dVth.  Returns 0 for dVth <= 0.
  Years equivalentAge(Kelvin temperature, double duty, Volts dVth) const;

  /// Inverts the delay factor to the dVth that produces it.
  Volts deltaVthFromDelayFactor(double delayFactor) const;

  const NbtiConfig& config() const { return config_; }

 private:
  NbtiConfig config_;
};

}  // namespace hayat
