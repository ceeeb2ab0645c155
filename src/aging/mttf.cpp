#include "aging/mttf.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hayat {

namespace {
constexpr double kBoltzmannEv = 8.617333262e-5;  // [eV/K]
}

double arrheniusFactor(double activationEnergyEv, Kelvin temperature,
                       Kelvin referenceTemperature) {
  return std::exp(activationEnergyEv / kBoltzmannEv *
                  (1.0 / temperature - 1.0 / referenceTemperature));
}

MttfModel::MttfModel(MttfConfig config) : config_(config) {
  HAYAT_REQUIRE(config.activationEnergyEv > 0.0,
                "activation energy must be positive");
  HAYAT_REQUIRE(config.referenceMttfYears > 0.0,
                "reference MTTF must be positive");
  HAYAT_REQUIRE(config.referenceTemperature > 0.0,
                "reference temperature must be positive kelvin");
}

Years MttfModel::mttf(Kelvin temperature) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  return config_.referenceMttfYears *
         arrheniusFactor(config_.activationEnergyEv, temperature,
                         config_.referenceTemperature);
}

double MttfModel::damageRate(Kelvin temperature) const {
  return 1.0 / mttf(temperature);
}

void DamageAccumulator::accumulate(const MttfModel& model, Kelvin temperature,
                                   Years duration) {
  HAYAT_REQUIRE(duration >= 0.0, "negative damage duration");
  damage_ += duration * model.damageRate(temperature);
}

DamageAccumulator DamageAccumulator::fromDamage(double damage) {
  HAYAT_REQUIRE(damage >= 0.0, "negative damage");
  DamageAccumulator a;
  a.damage_ = damage;
  return a;
}

double weibullMeanOneQuantile(double u, double shape) {
  HAYAT_REQUIRE(u >= 0.0 && u < 1.0, "quantile probability must be in [0, 1)");
  HAYAT_REQUIRE(shape > 0.0, "Weibull shape must be positive");
  // Weibull(shape k, scale l): Q(u) = l * (-ln(1-u))^(1/k), mean
  // l * Gamma(1 + 1/k); scale for mean 1 is 1/Gamma(1 + 1/k).
  const double scale = 1.0 / std::tgamma(1.0 + 1.0 / shape);
  return scale * std::pow(-std::log1p(-u), 1.0 / shape);
}

Years damageCrossingTime(const std::vector<double>& epochDamageRates,
                         Years epochLength, double threshold) {
  HAYAT_REQUIRE(epochLength > 0.0, "epoch length must be positive");
  HAYAT_REQUIRE(threshold >= 0.0, "negative damage threshold");
  if (threshold <= 0.0) return 0.0;
  double damage = 0.0;
  for (std::size_t e = 0; e < epochDamageRates.size(); ++e) {
    const double rate = epochDamageRates[e];
    HAYAT_REQUIRE(rate >= 0.0, "negative damage rate");
    const double next = damage + rate * epochLength;
    if (next >= threshold) {
      // Crossed inside this epoch; rate > 0 is implied by next > damage.
      return static_cast<double>(e) * epochLength +
             (threshold - damage) / rate;
    }
    damage = next;
  }
  // Never crossed within the trajectory: extrapolate the observed regime.
  const Years horizon =
      static_cast<double>(epochDamageRates.size()) * epochLength;
  if (damage <= 0.0 || horizon <= 0.0) return kUnboundedLifetime;
  const double meanRate = damage / horizon;
  return horizon + (threshold - damage) / meanRate;
}

ChipReliability summarizeReliability(const std::vector<double>& coreDamage,
                                     Years elapsed) {
  HAYAT_REQUIRE(!coreDamage.empty(), "no cores to summarize");
  HAYAT_REQUIRE(elapsed >= 0.0, "negative elapsed time");
  ChipReliability out;
  double sum = 0.0;
  for (double d : coreDamage) {
    HAYAT_REQUIRE(d >= 0.0, "negative core damage");
    out.worstDamage = std::max(out.worstDamage, d);
    sum += d;
  }
  out.averageDamage = sum / static_cast<double>(coreDamage.size());
  out.projectedMttf =
      out.worstDamage > 0.0 ? elapsed / out.worstDamage : 0.0;
  return out;
}

}  // namespace hayat
