#include "power/leakage.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hayat {

namespace {
constexpr double kBoltzmannOverCharge = 8.617333262e-5;  // [V/K]
}

LeakageModel::LeakageModel(LeakageConfig config, const VariationMap& variation)
    : config_(config), variation_(&variation) {
  HAYAT_REQUIRE(config.nominalCoreLeakage >= 0.0, "negative nominal leakage");
  HAYAT_REQUIRE(config.gatedCoreLeakage >= 0.0, "negative gated leakage");
  HAYAT_REQUIRE(config.referenceTemperature > 0.0,
                "reference temperature must be positive kelvin");
}

double LeakageModel::temperatureFactor(Kelvin temperature) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  // Clamp the evaluation temperature: beyond ~400 K the subthreshold
  // model would feed a thermal runaway the package physics (melting TIM,
  // tripped PROCHOT) makes unreachable; the clamp keeps the coupled
  // leakage fixed point contractive under extreme transients.
  const Kelvin t = std::min(temperature, 400.0);
  const double n = config_.subthresholdSlopeFactor;
  const double vth = config_.nominalVth;
  auto unnormalized = [&](Kelvin x) {
    const double vt = kBoltzmannOverCharge * x;
    return x * x * std::exp(-vth / (n * vt));
  };
  return unnormalized(t) / unnormalized(config_.referenceTemperature);
}

Watts LeakageModel::coreLeakageOn(int core, Kelvin temperature) const {
  return config_.nominalCoreLeakage * temperatureFactor(temperature) *
         variation_->coreLeakageMultiplier(core, temperature);
}

Watts LeakageModel::coreLeakageGated() const {
  return config_.gatedCoreLeakage;
}

Watts LeakageModel::coreLeakage(int core, Kelvin temperature,
                                bool poweredOn) const {
  return poweredOn ? coreLeakageOn(core, temperature) : coreLeakageGated();
}

}  // namespace hayat
