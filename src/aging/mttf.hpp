// Temperature-driven mean-time-to-failure and damage accumulation.
//
// The paper's introduction motivates thermal management with hard-failure
// reliability: "a difference between 10 C - 15 C can result in a 2x
// difference in the mean-time-to-failure of the devices [22]".  NBTI only
// covers the *parametric* side (frequency loss); catastrophic wear-out
// (electromigration, TDDB) follows the classic Arrhenius law
//
//     MTTF(T) = MTTF_ref * exp(Ea/k * (1/T - 1/T_ref))
//
// This module provides that model — with the activation energy calibrated
// so the paper's quoted 2x-per-12.5-K sensitivity holds around typical
// die temperatures — plus Miner's-rule damage accumulation over varying
// temperature histories, giving each core a consumed-life fraction and
// the chip (a series system: the first failed core degrades the machine)
// a projected MTTF.  The lifetime simulator accumulates this alongside
// the NBTI health map, so every policy comparison also reports the
// hard-failure margin its thermal profile buys.
#pragma once

#include <limits>
#include <vector>

#include "common/units.hpp"

namespace hayat {

/// Lifetime of a unit its stress never damages (zero-stress sentinel of
/// the per-unit wearout models, failure/wearout.hpp).
constexpr Years kUnboundedLifetime = std::numeric_limits<double>::infinity();

/// The Arrhenius acceleration exp(Ea/k * (1/T - 1/T_ref)): how much
/// longer a unit lasts at `temperature` than at `referenceTemperature`
/// for a mechanism of activation energy `activationEnergyEv` [eV].  The
/// one evaluator of MttfModel and the per-unit wearout models
/// (failure/wearout.hpp).
double arrheniusFactor(double activationEnergyEv, Kelvin temperature,
                       Kelvin referenceTemperature);

/// Arrhenius MTTF parameters.
struct MttfConfig {
  /// Activation energy [eV].  0.6 eV gives the paper's ~2x MTTF per
  /// 12.5 K around 345 K (electromigration-class wear-out).
  double activationEnergyEv = 0.6;
  /// MTTF at the reference temperature [years].
  Years referenceMttfYears = 30.0;
  Kelvin referenceTemperature = 338.15;  ///< 65 C
};

/// The Arrhenius lifetime model.
class MttfModel {
 public:
  explicit MttfModel(MttfConfig config = {});

  /// Mean time to failure at a constant temperature [years].
  Years mttf(Kelvin temperature) const;

  /// Instantaneous damage rate 1/MTTF(T) [1/years].
  double damageRate(Kelvin temperature) const;

  const MttfConfig& config() const { return config_; }

 private:
  MttfConfig config_;
};

/// Miner's-rule consumed-life accumulator for one core.
class DamageAccumulator {
 public:
  /// Adds `duration` years at constant temperature T: damage grows by
  /// duration / MTTF(T).
  void accumulate(const MttfModel& model, Kelvin temperature,
                  Years duration);

  /// Consumed life fraction; >= 1 means the expected failure point has
  /// been reached.
  double damage() const { return damage_; }

  /// Restores a checkpointed damage value.
  static DamageAccumulator fromDamage(double damage);

 private:
  double damage_ = 0.0;
};

/// Chip-level summary over per-core damage values (series system).
struct ChipReliability {
  double worstDamage = 0.0;    ///< most-consumed core
  double averageDamage = 0.0;
  /// Projected chip MTTF [years]: the elapsed time scaled to the point
  /// where the worst core reaches damage 1 (assuming the observed
  /// thermal regime continues).
  Years projectedMttf = 0.0;
};

/// Summarizes per-core damage after `elapsed` years of operation.
ChipReliability summarizeReliability(const std::vector<double>& coreDamage,
                                     Years elapsed);

// Distribution mode (DESIGN.md §3.14) — the closed-form primitives the
// failure Monte Carlo (src/failure) samples with.  MTTF models give the
// *mean*; real units scatter around it.  The standard lifetime
// distribution for wear-out mechanisms is the Weibull; normalizing its
// scale so the mean is exactly 1 turns a sampled quantile into a Miner
// damage *threshold*: the unit fails when its accumulated consumed-life
// fraction crosses the threshold, so E[threshold] = 1 reproduces the
// point MTTF on average while the shape parameter carries the scatter.

/// Quantile (inverse CDF) of the mean-one Weibull with shape `shape` at
/// probability u in [0, 1).  Monotone in u; u = 0 returns 0.
double weibullMeanOneQuantile(double u, double shape);

/// Failure time under Miner's rule: walks per-epoch damage rates
/// [1/years] until the accumulated damage crosses `threshold`
/// (interpolating within the crossing epoch).  Past the trajectory the
/// regime is assumed to continue at the trajectory's mean rate; a
/// trajectory that accumulates zero damage returns kUnboundedLifetime.
Years damageCrossingTime(const std::vector<double>& epochDamageRates,
                         Years epochLength, double threshold);

}  // namespace hayat
