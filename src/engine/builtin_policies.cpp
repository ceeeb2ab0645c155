#include "engine/builtin_policies.hpp"

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>

#include "baselines/simple_policies.hpp"
#include "baselines/utilization_aware.hpp"
#include "baselines/vaa.hpp"
#include "common/error.hpp"
#include "core/exhaustive_policy.hpp"
#include "core/hayat_policy.hpp"
#include "runtime/policy_registry.hpp"

namespace hayat::engine {

namespace {

/// Enforces the PolicyFactory contract: unknown parameter names throw.
void requireKnownParams(const char* policy, const PolicyParams& params,
                        std::initializer_list<const char*> known) {
  for (const auto& [key, value] : params) {
    (void)value;
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok)
      throw Error(std::string(policy) + " policy has no parameter \"" + key +
                  "\"");
  }
}

DutyPolicy dutyPolicyFromParam(double value) {
  const int v = static_cast<int>(value);
  switch (v) {
    case 0:
      return DutyPolicy::Generic;
    case 1:
      return DutyPolicy::Known;
    case 2:
      return DutyPolicy::WorstCase;
    default:
      throw Error("dutyPolicy parameter must be 0 (Generic), 1 (Known) "
                  "or 2 (WorstCase)");
  }
}

std::unique_ptr<MappingPolicy> makeHayat(const PolicyParams& params) {
  requireKnownParams("Hayat", params,
                     {"earlyAlphaGHz", "earlyBeta", "lateAlphaGHz", "lateBeta",
                      "wmax", "lateAgingOnset", "dutyPolicy",
                      "leakageIterations", "wearGamma"});
  HayatConfig config;
  config.earlyAlphaGHz = paramOr(params, "earlyAlphaGHz", config.earlyAlphaGHz);
  config.earlyBeta = paramOr(params, "earlyBeta", config.earlyBeta);
  config.lateAlphaGHz = paramOr(params, "lateAlphaGHz", config.lateAlphaGHz);
  config.lateBeta = paramOr(params, "lateBeta", config.lateBeta);
  config.wmax = paramOr(params, "wmax", config.wmax);
  config.lateAgingOnset =
      paramOr(params, "lateAgingOnset", config.lateAgingOnset);
  if (params.count("dutyPolicy"))
    config.dutyPolicy = dutyPolicyFromParam(params.at("dutyPolicy"));
  config.leakageIterations = static_cast<int>(
      paramOr(params, "leakageIterations", config.leakageIterations));
  config.wearGamma = paramOr(params, "wearGamma", config.wearGamma);
  return std::make_unique<HayatPolicy>(config);
}

std::unique_ptr<MappingPolicy> makeVaa(const PolicyParams& params) {
  requireKnownParams("VAA", params, {"availabilityRadius", "seed"});
  VaaConfig config;
  config.availabilityRadius = static_cast<int>(
      paramOr(params, "availabilityRadius", config.availabilityRadius));
  config.seed = static_cast<std::uint64_t>(
      paramOr(params, "seed", static_cast<double>(config.seed)));
  return std::make_unique<VaaPolicy>(config);
}

std::unique_ptr<MappingPolicy> makeRandom(const PolicyParams& params) {
  requireKnownParams("Random", params, {"seed"});
  return std::make_unique<RandomPolicy>(
      static_cast<std::uint64_t>(paramOr(params, "seed", 7.0)));
}

std::unique_ptr<MappingPolicy> makeCoolestFirst(const PolicyParams& params) {
  requireKnownParams("CoolestFirst", params, {});
  return std::make_unique<CoolestFirstPolicy>();
}

std::unique_ptr<MappingPolicy> makeUtilizationAware(
    const PolicyParams& params) {
  requireKnownParams("UtilizationAware", params, {});
  return std::make_unique<UtilizationAwarePolicy>();
}

std::unique_ptr<MappingPolicy> makeExhaustive(const PolicyParams& params) {
  requireKnownParams("Exhaustive", params, {"maxAssignments", "dutyPolicy"});
  ExhaustiveConfig config;
  config.maxAssignments = static_cast<std::uint64_t>(paramOr(
      params, "maxAssignments", static_cast<double>(config.maxAssignments)));
  if (params.count("dutyPolicy"))
    config.dutyPolicy = dutyPolicyFromParam(params.at("dutyPolicy"));
  return std::make_unique<ExhaustivePolicy>(config);
}

}  // namespace

void registerBuiltinPolicies() {
  static std::once_flag once;
  std::call_once(once, [] {
    PolicyRegistry& registry = PolicyRegistry::global();
    registry.add("Hayat", makeHayat);
    registry.add("VAA", makeVaa);
    registry.add("Random", makeRandom);
    registry.add("CoolestFirst", makeCoolestFirst);
    registry.add("UtilizationAware", makeUtilizationAware);
    registry.add("Exhaustive", makeExhaustive);
  });
}

}  // namespace hayat::engine
