#include "power/leakage.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hayat {

namespace {
constexpr double kBoltzmannOverCharge = 8.617333262e-5;  // [V/K]

/// T^2 exp(-Vth / (n k T / q)): the subthreshold form before normalizing.
double unnormalizedFactor(const LeakageConfig& config, Kelvin x) {
  const double vt = kBoltzmannOverCharge * x;
  return x * x *
         std::exp(-config.nominalVth / (config.subthresholdSlopeFactor * vt));
}
}  // namespace

LeakageModel::LeakageModel(LeakageConfig config, const VariationMap& variation)
    : config_(config), variation_(&variation) {
  HAYAT_REQUIRE(config.nominalCoreLeakage >= 0.0, "negative nominal leakage");
  HAYAT_REQUIRE(config.gatedCoreLeakage >= 0.0, "negative gated leakage");
  HAYAT_REQUIRE(config.referenceTemperature > 0.0,
                "reference temperature must be positive kelvin");
  referenceFactor_ = unnormalizedFactor(config_, config_.referenceTemperature);
}

double LeakageModel::temperatureFactor(Kelvin temperature) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  // Clamp the evaluation temperature: beyond ~400 K the subthreshold
  // model would feed a thermal runaway the package physics (melting TIM,
  // tripped PROCHOT) makes unreachable; the clamp keeps the coupled
  // leakage fixed point contractive under extreme transients.
  const Kelvin t = std::min(temperature, 400.0);
  return unnormalizedFactor(config_, t) / referenceFactor_;
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
