// Tests for the architecture substrate: Dark Core Maps, sensors, and the
// Chip aggregate.
#include <gtest/gtest.h>

#include "arch/chip.hpp"
#include "arch/dark_core_map.hpp"
#include "arch/dvfs.hpp"
#include "arch/sensors.hpp"
#include "common/error.hpp"
#include "variation/population.hpp"

namespace hayat {
namespace {

// --- DarkCoreMap --------------------------------------------------------

TEST(Dcm, DefaultAllDark) {
  const DarkCoreMap dcm{GridShape(4, 4)};
  EXPECT_EQ(dcm.onCount(), 0);
  EXPECT_EQ(dcm.offCount(), 16);
  EXPECT_DOUBLE_EQ(dcm.darkFraction(), 1.0);
}

TEST(Dcm, AllOn) {
  const DarkCoreMap dcm = DarkCoreMap::allOn(GridShape(3, 3));
  EXPECT_EQ(dcm.onCount(), 9);
  EXPECT_DOUBLE_EQ(dcm.darkFraction(), 0.0);
}

TEST(Dcm, ContiguousFillsRowMajor) {
  const DarkCoreMap dcm = DarkCoreMap::contiguous(GridShape(4, 4), 6);
  EXPECT_EQ(dcm.onCount(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(dcm.isOn(i));
  for (int i = 6; i < 16; ++i) EXPECT_FALSE(dcm.isOn(i));
}

TEST(Dcm, SpreadIsCheckerboardAtHalf) {
  const DarkCoreMap dcm = DarkCoreMap::spread(GridShape(4, 4), 8);
  EXPECT_EQ(dcm.onCount(), 8);
  const GridShape g(4, 4);
  for (int i = 0; i < 16; ++i) {
    const TilePos p = g.posOf(i);
    EXPECT_EQ(dcm.isOn(i), (p.row + p.col) % 2 == 0);
  }
}

TEST(Dcm, SpreadHasFewerLitNeighboursThanContiguous) {
  const GridShape g(8, 8);
  const DarkCoreMap spread = DarkCoreMap::spread(g, 32);
  const DarkCoreMap dense = DarkCoreMap::contiguous(g, 32);
  int litSpread = 0, litDense = 0;
  for (int i = 0; i < 64; ++i) {
    if (spread.isOn(i)) litSpread += spread.litNeighbours(i);
    if (dense.isOn(i)) litDense += dense.litNeighbours(i);
  }
  EXPECT_LT(litSpread, litDense / 2);
}

TEST(Dcm, DarkBudgetCheck) {
  const DarkCoreMap dcm = DarkCoreMap::contiguous(GridShape(4, 4), 8);
  EXPECT_TRUE(dcm.meetsDarkBudget(0.5));
  EXPECT_TRUE(dcm.meetsDarkBudget(0.25));
  EXPECT_FALSE(dcm.meetsDarkBudget(0.75));
}

TEST(Dcm, SetOnTogglesCounts) {
  DarkCoreMap dcm{GridShape(2, 2)};
  dcm.setOn(0, true);
  dcm.setOn(3, true);
  EXPECT_EQ(dcm.onCount(), 2);
  dcm.setOn(0, false);
  EXPECT_EQ(dcm.onCount(), 1);
}

TEST(Dcm, RejectsInvalid) {
  EXPECT_THROW(DarkCoreMap::contiguous(GridShape(2, 2), 5), Error);
  DarkCoreMap dcm{GridShape(2, 2)};
  EXPECT_THROW(dcm.isOn(4), Error);
  EXPECT_THROW(dcm.meetsDarkBudget(1.5), Error);
  EXPECT_THROW(DarkCoreMap(GridShape(2, 2), std::vector<bool>(3, true)),
               Error);
}

// --- Sensors --------------------------------------------------------------

TEST(Sensors, NoiselessSensorsAreExact) {
  Rng rng(1);
  const ThermalSensor ts;
  const AgingSensor as;
  EXPECT_DOUBLE_EQ(ts.read(345.7, rng), 345.7);
  EXPECT_DOUBLE_EQ(as.read(1.12, rng), 1.12);
}

TEST(Sensors, QuantizationRoundsReadings) {
  Rng rng(1);
  const ThermalSensor ts(SensorNoise{0.0, 0.5});
  EXPECT_DOUBLE_EQ(ts.read(345.7, rng), 345.5);
  EXPECT_DOUBLE_EQ(ts.read(345.8, rng), 346.0);
}

TEST(Sensors, GaussianNoiseIsUnbiased) {
  Rng rng(2);
  const ThermalSensor ts(SensorNoise{1.0, 0.0});
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += ts.read(350.0, rng);
  EXPECT_NEAR(acc / n, 350.0, 0.05);
}

TEST(Sensors, AgingSensorNeverBelowOne) {
  Rng rng(3);
  const AgingSensor as(SensorNoise{0.5, 0.0});
  for (int i = 0; i < 1000; ++i) EXPECT_GE(as.read(1.0, rng), 1.0);
}

TEST(Sensors, RejectInvalid) {
  Rng rng(4);
  EXPECT_THROW(ThermalSensor(SensorNoise{-1.0, 0.0}), Error);
  const AgingSensor as;
  EXPECT_THROW(as.read(0.5, rng), Error);
}

// --- FrequencyLadder ---------------------------------------------------------

TEST(Dvfs, SortsAndDeduplicates) {
  const FrequencyLadder ladder({2.0e9, 1.0e9, 2.0e9, 3.0e9});
  EXPECT_EQ(ladder.levelCount(), 3);
  EXPECT_DOUBLE_EQ(ladder.lowest(), 1.0e9);
  EXPECT_DOUBLE_EQ(ladder.highest(), 3.0e9);
  EXPECT_DOUBLE_EQ(ladder.level(1), 2.0e9);
}

TEST(Dvfs, UniformLadderEndpoints) {
  const FrequencyLadder ladder = FrequencyLadder::uniform(1.0e9, 3.0e9, 5);
  EXPECT_EQ(ladder.levelCount(), 5);
  EXPECT_DOUBLE_EQ(ladder.lowest(), 1.0e9);
  EXPECT_DOUBLE_EQ(ladder.highest(), 3.0e9);
  EXPECT_DOUBLE_EQ(ladder.level(2), 2.0e9);
}

TEST(Dvfs, SnapSemantics) {
  const FrequencyLadder ladder({1.0e9, 2.0e9, 3.0e9});
  EXPECT_DOUBLE_EQ(ladder.snapUp(1.5e9), 2.0e9);
  EXPECT_DOUBLE_EQ(ladder.snapUp(2.0e9), 2.0e9);  // exact level
  EXPECT_DOUBLE_EQ(ladder.snapUp(9.0e9), 3.0e9);  // above all: clamp
  EXPECT_DOUBLE_EQ(ladder.snapDown(1.5e9), 1.0e9);
  EXPECT_DOUBLE_EQ(ladder.snapDown(0.5e9), 1.0e9);  // below all: clamp
}

TEST(Dvfs, OperatingLevelMeetsRequirementWhenPossible) {
  const FrequencyLadder ladder({1.0e9, 2.0e9, 3.0e9});
  // Requirement 1.4 GHz, core limit 2.5 GHz -> level 2.0 GHz.
  EXPECT_DOUBLE_EQ(ladder.operatingLevel(1.4e9, 2.5e9), 2.0e9);
  // Requirement 2.4 GHz, core limit 2.5 GHz: snapping up to 3 GHz would
  // exceed fmax, so the fastest feasible level (2 GHz) is used.
  EXPECT_DOUBLE_EQ(ladder.operatingLevel(2.4e9, 2.5e9), 2.0e9);
  // Exact fit.
  EXPECT_DOUBLE_EQ(ladder.operatingLevel(2.0e9, 2.0e9), 2.0e9);
}

TEST(Dvfs, RejectsInvalid) {
  EXPECT_THROW(FrequencyLadder(std::vector<Hertz>{}), Error);
  EXPECT_THROW(FrequencyLadder({1.0e9, -2.0e9}), Error);
  EXPECT_THROW(FrequencyLadder::uniform(2e9, 1e9, 3), Error);
  EXPECT_THROW(FrequencyLadder::uniform(1e9, 2e9, 1), Error);
}

class LadderSweep : public ::testing::TestWithParam<int> {};

TEST_P(LadderSweep, OperatingLevelInvariants) {
  const FrequencyLadder ladder =
      FrequencyLadder::uniform(0.4e9, 3.6e9, GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const Hertz required = rng.uniform(0.1e9, 4.0e9);
    const Hertz fmax = rng.uniform(0.5e9, 4.0e9);
    const Hertz level = ladder.operatingLevel(required, fmax);
    // Always a ladder level.
    bool onLadder = false;
    for (int l = 0; l < ladder.levelCount(); ++l)
      if (level == ladder.level(l)) onLadder = true;
    EXPECT_TRUE(onLadder);
    // Never above fmax unless even the lowest level exceeds it.
    if (ladder.lowest() <= fmax) {
      EXPECT_LE(level, fmax + 1.0);
    }
    // Meets the requirement whenever some feasible level could.
    bool feasible = false;
    for (int l = 0; l < ladder.levelCount(); ++l)
      if (ladder.level(l) >= required && ladder.level(l) <= fmax)
        feasible = true;
    if (feasible) {
      EXPECT_GE(level, required - 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LadderSizes, LadderSweep,
                         ::testing::Values(2, 4, 9, 17, 33));

// --- Chip -------------------------------------------------------------------

class ChipFixture : public ::testing::Test {
 protected:
  static Chip makeChip(std::uint64_t seed = 2015,
                       bool scalarReference = false) {
    PopulationConfig pc;
    pc.coreGrid = GridShape(4, 4);
    ChipConfig cc;
    cc.floorplan = FloorPlan(pc.coreGrid, pc.coreWidth, pc.coreHeight);
    cc.agingTable.scalarReference = scalarReference;
    cc.pathsPerCore = 3;
    cc.elementsPerPath = 12;
    return Chip(cc, generateChip(pc, seed), seed);
  }
};

TEST_F(ChipFixture, GeometryAndCounts) {
  const Chip chip = makeChip();
  EXPECT_EQ(chip.coreCount(), 16);
  EXPECT_EQ(chip.grid().rows(), 4);
}

TEST_F(ChipFixture, InitialHealthIsPerfect) {
  const Chip chip = makeChip();
  for (int i = 0; i < chip.coreCount(); ++i) {
    EXPECT_DOUBLE_EQ(chip.health().health(i), 1.0);
    EXPECT_DOUBLE_EQ(chip.currentFmax(i), chip.initialFmax(i));
    EXPECT_DOUBLE_EQ(chip.initialFmax(i), chip.variation().coreInitialFmax(i));
  }
}

TEST_F(ChipFixture, AggregateFrequencies) {
  const Chip chip = makeChip();
  double best = 0.0, sum = 0.0;
  for (int i = 0; i < chip.coreCount(); ++i) {
    best = std::max(best, chip.initialFmax(i));
    sum += chip.initialFmax(i);
  }
  EXPECT_DOUBLE_EQ(chip.chipFmax(), best);
  EXPECT_NEAR(chip.averageFmax(), sum / 16.0, 1e-6);
}

TEST_F(ChipFixture, AgingLowersFrequencies) {
  Chip chip = makeChip();
  const double fBefore = chip.averageFmax();
  for (int i = 0; i < chip.coreCount(); ++i)
    chip.health().advance(i, chip.agingTable(), 370.0, 0.7, 1.0);
  EXPECT_LT(chip.averageFmax(), fBefore);
  EXPECT_GT(chip.averageFmax(), 0.7 * fBefore);
}

TEST_F(ChipFixture, DeterministicPerSeed) {
  const Chip a = makeChip(5);
  const Chip b = makeChip(5);
  const Chip c = makeChip(6);
  EXPECT_DOUBLE_EQ(a.chipFmax(), b.chipFmax());
  EXPECT_DOUBLE_EQ(a.agingTable().delayFactor(350, 0.5, 5.0),
                   b.agingTable().delayFactor(350, 0.5, 5.0));
  EXPECT_NE(a.chipFmax(), c.chipFmax());
}

TEST_F(ChipFixture, RejectsMismatchedVariation) {
  PopulationConfig pc;
  pc.coreGrid = GridShape(4, 4);
  ChipConfig cc;
  cc.floorplan = FloorPlan(GridShape(2, 2), 1.7e-3, 1.75e-3);
  EXPECT_THROW(Chip(cc, generateChip(pc, 1), 1), Error);
}

TEST_F(ChipFixture, ResetHealthRestoresYearZero) {
  Chip chip = makeChip();
  const Chip fresh = makeChip();
  for (int i = 0; i < chip.coreCount(); ++i)
    chip.health().advance(i, chip.agingTable(), 380.0, 0.8, 2.0);
  ASSERT_LT(chip.averageFmax(), fresh.averageFmax());
  chip.resetHealth();
  for (int i = 0; i < chip.coreCount(); ++i) {
    // Bitwise restore: resetHealth rebuilds the health map from the same
    // deterministic variation data a fresh construction uses.
    EXPECT_EQ(chip.currentFmax(i), fresh.currentFmax(i));
    EXPECT_EQ(chip.health().health(i), 1.0);
  }
}

TEST_F(ChipFixture, SameRecipeChipsShareOneAgingTable) {
  // Batched mode: the process-wide cache hands same-(config, seed) chips
  // the same immutable table (the paper's "only a start-up time effort
  // for a given chip" — paid once per recipe, not once per task).
  Chip::clearSharedAgingTableCacheForTest();
  const Chip a = makeChip(5);
  const Chip b = makeChip(5);
  const Chip c = makeChip(6);
  EXPECT_EQ(&a.agingTable(), &b.agingTable());
  EXPECT_NE(&a.agingTable(), &c.agingTable());  // different netlist seed
  Chip::clearSharedAgingTableCacheForTest();
}

TEST_F(ChipFixture, ScalarAgingModeBypassesTheSharedTable) {
  // The scalar reference lane models the seed stack, which generated a
  // fresh table per chip; it must not read (or warm) the shared cache.
  Chip::clearSharedAgingTableCacheForTest();
  const Chip a = makeChip(5, true);
  const Chip b = makeChip(5, true);
  EXPECT_NE(&a.agingTable(), &b.agingTable());
  EXPECT_TRUE(a.agingTable().usesScalarAging());
  // Value-identical to the batched lane's cached table all the same.
  const Chip cached = makeChip(5);
  EXPECT_FALSE(cached.agingTable().usesScalarAging());
  EXPECT_EQ(a.agingTable().delayFactor(350, 0.5, 5.0),
            cached.agingTable().delayFactor(350, 0.5, 5.0));
  Chip::clearSharedAgingTableCacheForTest();
}

}  // namespace
}  // namespace hayat
