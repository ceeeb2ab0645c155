#include "aging/nbti_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hayat {

NbtiModel::NbtiModel(NbtiConfig config) : config_(config) {
  HAYAT_REQUIRE(config.vdd > 0.0, "vdd must be positive");
  HAYAT_REQUIRE(config.nominalVth > 0.0 && config.nominalVth < config.vdd,
                "nominal Vth must lie in (0, vdd)");
  HAYAT_REQUIRE(config.techScale > 0.0, "techScale must be positive");
  HAYAT_REQUIRE(config.alphaPower > 0.0, "alphaPower must be positive");
  HAYAT_REQUIRE(config.timeExponent > 0.0 && config.timeExponent < 1.0,
                "timeExponent must be in (0, 1)");
}

double NbtiModel::stressPrefactor(Kelvin temperature, double duty) const {
  const double factor = temperatureFactor(temperature);
  HAYAT_REQUIRE(duty >= 0.0 && duty <= 1.0, "duty cycle must be in [0, 1]");
  return factor * std::pow(duty, config_.timeExponent);
}

double NbtiModel::temperatureFactor(Kelvin temperature) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  const double vdd4 = std::pow(config_.vdd, 4.0);
  return config_.techScale * 0.05 * std::exp(-1500.0 / temperature) * vdd4;
}

Volts NbtiModel::deltaVth(Kelvin temperature, double duty, Years age) const {
  HAYAT_REQUIRE(age >= 0.0, "age must be non-negative");
  return stressPrefactor(temperature, duty) *
         std::pow(age, config_.timeExponent);
}

double NbtiModel::delayFactorFromDeltaVth(Volts dVth) const {
  HAYAT_REQUIRE(dVth >= 0.0, "negative threshold shift");
  const double headroom = config_.vdd - config_.nominalVth;
  HAYAT_REQUIRE(dVth < headroom,
                "threshold shift exhausts the gate overdrive; the device "
                "has failed outright");
  return std::pow(headroom / (headroom - dVth), config_.alphaPower);
}

double NbtiModel::delayFactor(Kelvin temperature, double duty,
                              Years age) const {
  return delayFactorFromDeltaVth(deltaVth(temperature, duty, age));
}

Years NbtiModel::equivalentAge(Kelvin temperature, double duty,
                               Volts dVth) const {
  HAYAT_REQUIRE(dVth >= 0.0, "negative threshold shift");
  if (dVth == 0.0) return 0.0;
  const double k = stressPrefactor(temperature, duty);
  HAYAT_REQUIRE(k > 0.0,
                "equivalent age undefined under zero stress (duty == 0)");
  return std::pow(dVth / k, 1.0 / config_.timeExponent);
}

Volts NbtiModel::deltaVthFromDelayFactor(double delayFactor) const {
  HAYAT_REQUIRE(delayFactor >= 1.0, "delay factor must be >= 1");
  const double headroom = config_.vdd - config_.nominalVth;
  return headroom * (1.0 - std::pow(delayFactor, -1.0 / config_.alphaPower));
}

}  // namespace hayat
