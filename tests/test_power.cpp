// Tests for the power substrate: leakage (temperature scaling, variation
// coupling, power gating), dynamic power, and the coupled
// leakage-temperature fixed point.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "power/dynamic_power.hpp"
#include "power/leakage.hpp"
#include "power/thermal_coupling.hpp"
#include "variation/variation_map.hpp"

namespace hayat {
namespace {

VariationMap uniformChip(double theta = 1.0, int edge = 4) {
  VariationMapConfig mc;
  mc.coreGrid = GridShape(edge, edge);
  mc.pointsPerCoreEdge = 2;
  Rng rng(1);
  return VariationMap(
      mc, std::vector<double>(static_cast<std::size_t>(edge * edge * 4), theta),
      rng);
}

// --- LeakageModel ---------------------------------------------------------

TEST(Leakage, NominalAtReferenceTemperature) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  // Section V: 1.18 W nominal; theta == 1 removes variation.
  EXPECT_NEAR(lm.coreLeakageOn(0, 330.0), 1.18, 1e-9);
}

TEST(Leakage, TemperatureFactorMonotone) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  double prev = 0.0;
  for (Kelvin t = 300.0; t <= 400.0; t += 10.0) {
    const double f = lm.temperatureFactor(t);
    EXPECT_GT(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(lm.temperatureFactor(330.0), 1.0);
}

TEST(Leakage, TemperatureFactorClampsAtRunawayLimit) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  EXPECT_DOUBLE_EQ(lm.temperatureFactor(400.0), lm.temperatureFactor(500.0));
}

TEST(Leakage, RealisticDoublingRate) {
  // Subthreshold leakage should roughly double every 25-45 K in the
  // operating band — much faster and the coupled solve would run away,
  // much slower and the McPAT temperature dependence is lost.
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  const double ratio = lm.temperatureFactor(360.0) / lm.temperatureFactor(330.0);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.6);
}

TEST(Leakage, GatedLeakageIsPaperConstant) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  EXPECT_DOUBLE_EQ(lm.coreLeakageGated(), 0.019);
  EXPECT_DOUBLE_EQ(lm.coreLeakage(3, 390.0, false), 0.019);
}

TEST(Leakage, PowerGatingSavesOrdersOfMagnitude) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  EXPECT_GT(lm.coreLeakage(0, 350.0, true) / lm.coreLeakage(0, 350.0, false),
            30.0);
}

TEST(Leakage, FastSiliconLeaksMoreThroughVariation) {
  const VariationMap fast = uniformChip(0.92);
  const VariationMap slow = uniformChip(1.08);
  const LeakageModel lmFast(LeakageConfig{}, fast);
  const LeakageModel lmSlow(LeakageConfig{}, slow);
  EXPECT_GT(lmFast.coreLeakageOn(0, 330.0), 1.18);
  EXPECT_LT(lmSlow.coreLeakageOn(0, 330.0), 1.18);
}

TEST(Leakage, RejectsBadTemperature) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  EXPECT_THROW(lm.temperatureFactor(0.0), Error);
  EXPECT_THROW(lm.temperatureFactor(-5.0), Error);
  EXPECT_THROW(lm.coreLeakageOn(0, -5.0), Error);
  EXPECT_THROW(vm.coreLeakageMultiplier(0, 0.0), Error);
  EXPECT_THROW(vm.coreLeakageMultiplier(0, -5.0), Error);
  // The per-core exponents live in one flat array; an out-of-range core
  // must be refused rather than read past it.
  EXPECT_THROW(vm.coreLeakageMultiplier(-1, 330.0), Error);
  EXPECT_THROW(vm.coreLeakageMultiplier(vm.coreCount(), 330.0), Error);
  EXPECT_THROW(lm.coreLeakageOn(vm.coreCount(), 330.0), Error);
}

TEST(Leakage, HoistedConstantsMatchTheFormulasBitwise) {
  // temperatureFactor's reference normalizer and the per-point
  // -dVth numerators are computed once per model; every call must still
  // return the bytes of the formulas evaluated in full, across the
  // 400 K clamp.
  VariationMapConfig mc;
  mc.coreGrid = GridShape(4, 4);
  mc.pointsPerCoreEdge = 2;
  Rng fieldRng(11);
  std::vector<double> theta(64);
  for (double& t : theta) t = fieldRng.uniform(0.85, 1.15);
  Rng rng(1);
  const VariationMap vm(mc, theta, rng);
  const LeakageConfig config;
  const LeakageModel lm(config, vm);

  constexpr double kBoltzmannOverCharge = 8.617333262e-5;
  auto unnormalized = [&](Kelvin x) {
    const double vt = kBoltzmannOverCharge * x;
    return x * x *
           std::exp(-config.nominalVth / (config.subthresholdSlopeFactor * vt));
  };
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  std::vector<Kelvin> temps;
  for (Kelvin t = 250.0; t <= 450.0; t += 0.37) temps.push_back(t);
  for (Kelvin t : {330.0, 400.0, std::nextafter(400.0, 0.0),
                   std::nextafter(400.0, 500.0), 450.0})
    temps.push_back(t);
  for (Kelvin t : temps) {
    const double factor = unnormalized(std::min(t, 400.0)) /
                          unnormalized(config.referenceTemperature);
    EXPECT_EQ(bits(lm.temperatureFactor(t)), bits(factor)) << "T=" << t;
    const double nvt =
        mc.subthresholdSlopeFactor * (kBoltzmannOverCharge * t);
    for (int core = 0; core < vm.coreCount(); ++core) {
      const auto& pts = vm.corePoints(core);
      double acc = 0.0;
      for (int p : pts) acc += std::exp(-vm.pointVthDelta(p) / nvt);
      const double multiplier = acc / static_cast<double>(pts.size());
      ASSERT_EQ(bits(vm.coreLeakageMultiplier(core, t)), bits(multiplier))
          << "core " << core << " T=" << t;
    }
  }
}

// --- DynamicPowerModel ----------------------------------------------------

TEST(DynamicPower, LinearInFrequency) {
  const DynamicPowerModel dp(DynamicPowerConfig{});
  EXPECT_DOUBLE_EQ(dp.threadPower(4.0, 3.0e9), 4.0);
  EXPECT_DOUBLE_EQ(dp.threadPower(4.0, 1.5e9), 2.0);
  EXPECT_DOUBLE_EQ(dp.threadPower(4.0, 0.0), 0.0);
}

TEST(DynamicPower, EffectiveCapacitanceConsistent) {
  const DynamicPowerModel dp(DynamicPowerConfig{});
  const double c = dp.effectiveCapacitance(4.0);
  // P = C V^2 f must reproduce the trace power at nominal frequency.
  EXPECT_NEAR(c * 1.13 * 1.13 * 3.0e9, 4.0, 1e-9);
}

TEST(DynamicPower, RejectsNegative) {
  const DynamicPowerModel dp(DynamicPowerConfig{});
  EXPECT_THROW(dp.threadPower(-1.0, 1e9), Error);
  EXPECT_THROW(dp.threadPower(1.0, -1e9), Error);
}

// --- Coupled fixed point ---------------------------------------------------

ThermalModel smallThermal(int edge = 4) {
  ThermalConfig tc;
  tc.floorplan = FloorPlan(GridShape(edge, edge), 1.70e-3, 1.75e-3);
  return ThermalModel(tc);
}

TEST(Coupling, ConvergesAndIsSelfConsistent) {
  const VariationMap vm = uniformChip();
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  Vector dyn(16, 3.0);
  std::vector<bool> on(16, true);
  const CoupledOperatingPoint op =
      solveCoupledSteadyState(thermal, leakage, dyn, on);
  ASSERT_TRUE(op.converged);
  // Self-consistency: re-evaluating leakage at the converged temps and
  // re-solving reproduces the temps.
  Vector power(16);
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<std::size_t>(i);
    power[s] = dyn[s] + leakage.coreLeakage(i, op.coreTemperatures[s], true);
    // The under-relaxed iterate reports power from the previous sweep;
    // allow the corresponding slack.
    EXPECT_NEAR(power[s], op.corePower[s], 1e-3);
  }
  const Vector direct = thermal.steadyStateCoreTemperatures(power);
  EXPECT_LT(maxAbsDiff(direct, op.coreTemperatures), 0.05);
}

TEST(Coupling, HotterThanLeakageFreeSolve) {
  const VariationMap vm = uniformChip();
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  Vector dyn(16, 3.0);
  std::vector<bool> on(16, true);
  const CoupledOperatingPoint op =
      solveCoupledSteadyState(thermal, leakage, dyn, on);
  const Vector noLeak = thermal.steadyStateCoreTemperatures(dyn);
  for (int i = 0; i < 16; ++i)
    EXPECT_GT(op.coreTemperatures[static_cast<std::size_t>(i)],
              noLeak[static_cast<std::size_t>(i)]);
}

TEST(Coupling, DarkCoresStayCool) {
  const VariationMap vm = uniformChip();
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  Vector dyn(16, 0.0);
  std::vector<bool> on(16, false);
  dyn[5] = 5.0;
  on[5] = true;
  const CoupledOperatingPoint op =
      solveCoupledSteadyState(thermal, leakage, dyn, on);
  ASSERT_TRUE(op.converged);
  // Dark cores burn only the 19 mW gated leakage.
  EXPECT_NEAR(op.leakagePower[0], 0.019, 1e-12);
  EXPECT_GT(op.leakagePower[5], 0.5);
  // And the lone active core is the hottest spot.
  for (int i = 0; i < 16; ++i)
    EXPECT_LE(op.coreTemperatures[static_cast<std::size_t>(i)],
              op.coreTemperatures[5]);
}

TEST(Coupling, HighOccupancyStillConverges) {
  // The 75%-occupancy regime that once tripped the runaway must converge.
  const VariationMap vm = uniformChip(0.9);  // leaky fast silicon
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  Vector dyn(16, 5.0);
  std::vector<bool> on(16, true);
  const CoupledOperatingPoint op =
      solveCoupledSteadyState(thermal, leakage, dyn, on, 1e-3, 200);
  EXPECT_TRUE(op.converged);
  for (double t : op.coreTemperatures) EXPECT_LT(t, 450.0);
}

TEST(Coupling, RejectsSizeMismatch) {
  const VariationMap vm = uniformChip();
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  EXPECT_THROW(solveCoupledSteadyState(thermal, leakage, Vector(3, 0.0),
                                       std::vector<bool>(16, true)),
               Error);
}

}  // namespace
}  // namespace hayat
