#include "failure/wearout.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hayat {

EmModel::EmModel(EmConfig config) : config_(config) {
  HAYAT_REQUIRE(config.activationEnergyEv > 0.0,
                "EM activation energy must be positive");
  HAYAT_REQUIRE(config.currentExponent > 0.0,
                "EM current exponent must be positive");
  HAYAT_REQUIRE(config.referenceMttfYears > 0.0,
                "EM reference MTTF must be positive");
  HAYAT_REQUIRE(config.referenceTemperature > 0.0,
                "EM reference temperature must be positive kelvin");
  HAYAT_REQUIRE(config.referenceCurrentFactor > 0.0,
                "EM reference current factor must be positive");
}

Years EmModel::mttf(Kelvin temperature, double currentFactor) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  HAYAT_REQUIRE(currentFactor >= 0.0, "negative current-density factor");
  if (currentFactor <= 0.0) return kUnboundedLifetime;
  return config_.referenceMttfYears *
         std::pow(currentFactor / config_.referenceCurrentFactor,
                  -config_.currentExponent) *
         arrheniusFactor(config_.activationEnergyEv, temperature,
                         config_.referenceTemperature);
}

double EmModel::damageRate(Kelvin temperature, double currentFactor) const {
  const Years t = mttf(temperature, currentFactor);
  return std::isinf(t) ? 0.0 : 1.0 / t;
}

TddbModel::TddbModel(TddbConfig config) : config_(config) {
  HAYAT_REQUIRE(config.activationEnergyEv > 0.0,
                "TDDB activation energy must be positive");
  HAYAT_REQUIRE(config.voltageExponent > 0.0,
                "TDDB voltage exponent must be positive");
  HAYAT_REQUIRE(config.vdd > 0.0 && config.referenceVdd > 0.0,
                "TDDB voltages must be positive");
  HAYAT_REQUIRE(config.referenceMttfYears > 0.0,
                "TDDB reference MTTF must be positive");
  HAYAT_REQUIRE(config.referenceTemperature > 0.0,
                "TDDB reference temperature must be positive kelvin");
}

Years TddbModel::mttf(Kelvin temperature, double biasDuty) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  HAYAT_REQUIRE(biasDuty >= 0.0 && biasDuty <= 1.0,
                "bias duty must be in [0, 1]");
  if (biasDuty <= 0.0) return kUnboundedLifetime;
  return config_.referenceMttfYears *
         std::pow(config_.vdd / config_.referenceVdd,
                  -config_.voltageExponent) *
         arrheniusFactor(config_.activationEnergyEv, temperature,
                         config_.referenceTemperature) /
         biasDuty;
}

double TddbModel::damageRate(Kelvin temperature, double biasDuty) const {
  const Years t = mttf(temperature, biasDuty);
  return std::isinf(t) ? 0.0 : 1.0 / t;
}

}  // namespace hayat
