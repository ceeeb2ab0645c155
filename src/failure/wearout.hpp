// Per-unit hard-failure wearout models: electromigration and TDDB.
//
// The Arrhenius MttfModel (aging/mttf.hpp) treats the whole chip as one
// temperature-driven series system.  OldSpot-class whole-SoC modeling
// (Kappel et al., ICCD 2018) needs mechanism-resolved *per-unit* rates,
// because different units see different stresses: a core's interconnect
// carries current only while the core computes (electromigration), while
// a shared cache sits under gate bias whenever the chip is powered
// (TDDB).  This module provides the two classic closed forms:
//
//   Electromigration (Black's equation):
//     MTTF_EM(T, j) = MTTF_ref * (j / j_ref)^(-n) * exp(Ea/k (1/T - 1/T_ref))
//   with j the current-density factor (we use the unit's duty cycle as
//   the utilization-proportional proxy) and n ~ 2 (Black's original
//   exponent).
//
//   Time-dependent dielectric breakdown (power-law voltage acceleration):
//     MTTF_TDDB(T, d) = MTTF_ref * (V/V_ref)^(-gamma)
//                       * exp(Ea/k (1/T - 1/T_ref)) / d
//   with d the bias duty (fraction of time the gate stack is stressed)
//   and gamma ~ 46, the percolation-model exponent.
//
// Zero stress means the mechanism never damages the unit: both models
// return kUnboundedLifetime (infinity) and a zero damage rate, so a
// permanently dark unit survives every Monte Carlo sample.  Both models
// accumulate under Miner's rule exactly like MttfModel — damageRate() is
// 1/MTTF at the instantaneous operating point — which is what lets the
// Monte Carlo driver (monte_carlo.hpp) walk the simulator's own
// temperature/duty trajectories.
#pragma once

#include "aging/mttf.hpp"  // arrheniusFactor, kUnboundedLifetime, Miner rule
#include "common/units.hpp"

namespace hayat {

/// Black's-equation electromigration parameters.
struct EmConfig {
  /// Activation energy [eV]; 0.9 eV is the canonical Cu-interconnect EM
  /// value (JEDEC JEP122).
  double activationEnergyEv = 0.9;
  /// Current-density exponent n of Black's equation (~2 for void
  /// nucleation limited EM).
  double currentExponent = 2.0;
  /// MTTF at (referenceTemperature, referenceCurrentFactor) [years].
  Years referenceMttfYears = 20.0;
  Kelvin referenceTemperature = 345.0;
  /// Current-density factor the reference MTTF is quoted at (a core at
  /// ~50 % utilization).
  double referenceCurrentFactor = 0.5;
};

/// Black's-equation evaluator.
class EmModel {
 public:
  explicit EmModel(EmConfig config = {});

  /// MTTF at constant temperature and current-density factor [years].
  /// currentFactor <= 0 returns kUnboundedLifetime.
  Years mttf(Kelvin temperature, double currentFactor) const;

  /// Instantaneous Miner damage rate 1/MTTF [1/years]; 0 at zero stress.
  double damageRate(Kelvin temperature, double currentFactor) const;

  const EmConfig& config() const { return config_; }

 private:
  EmConfig config_;
};

/// Power-law TDDB parameters.
struct TddbConfig {
  /// Activation energy [eV]; 0.75 eV sits in the reported 0.6-0.9 range
  /// for high-k gate stacks.
  double activationEnergyEv = 0.75;
  /// Voltage-acceleration exponent gamma of the percolation power law.
  double voltageExponent = 46.0;
  Volts vdd = 1.13;           ///< operating gate voltage (Section V)
  Volts referenceVdd = 1.13;  ///< voltage the reference MTTF is quoted at
  /// MTTF at (referenceTemperature, referenceVdd, full bias duty) [years].
  Years referenceMttfYears = 25.0;
  Kelvin referenceTemperature = 345.0;
};

/// Power-law TDDB evaluator.
class TddbModel {
 public:
  explicit TddbModel(TddbConfig config = {});

  /// MTTF at constant temperature and bias duty [years].  biasDuty <= 0
  /// returns kUnboundedLifetime.
  Years mttf(Kelvin temperature, double biasDuty) const;

  /// Instantaneous Miner damage rate 1/MTTF [1/years]; 0 at zero stress.
  double damageRate(Kelvin temperature, double biasDuty) const;

  const TddbConfig& config() const { return config_; }

 private:
  TddbConfig config_;
};

}  // namespace hayat
