// Tests for the aging substrate: exact Eq. (7) values, Fig. 1(b)
// calibration, delay-model structure (Eq. 8), 3D aging tables, and the
// epoch-composable health state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "aging/aging_table.hpp"
#include "aging/delay_model.hpp"
#include "aging/hci_model.hpp"
#include "aging/health.hpp"
#include "aging/mttf.hpp"
#include "aging/nbti_model.hpp"
#include "common/error.hpp"

namespace hayat {
namespace {

// --- NbtiModel: Eq. (7) ----------------------------------------------------

TEST(Nbti, Eq7ExactValue) {
  // Hand-evaluated Eq. (7) with techScale = 1:
  // 0.05 * exp(-1500/350) * 1.13^4 * 10^(1/6) * 0.5^(1/6).
  NbtiConfig cfg;
  cfg.techScale = 1.0;
  const NbtiModel m(cfg);
  const double expected = 0.05 * std::exp(-1500.0 / 350.0) *
                          std::pow(1.13, 4.0) * std::pow(10.0, 1.0 / 6.0) *
                          std::pow(0.5, 1.0 / 6.0);
  EXPECT_NEAR(m.deltaVth(350.0, 0.5, 10.0), expected, 1e-15);
}

TEST(Nbti, TechScaleIsLinear) {
  NbtiConfig a, b;
  a.techScale = 1.0;
  b.techScale = 62.0;
  EXPECT_NEAR(NbtiModel(b).deltaVth(350, 0.5, 5.0),
              62.0 * NbtiModel(a).deltaVth(350, 0.5, 5.0), 1e-12);
}

TEST(Nbti, MonotoneInTemperature) {
  const NbtiModel m;
  double prev = 0.0;
  for (Kelvin t = 300; t <= 420; t += 10) {
    const double v = m.deltaVth(t, 0.5, 10.0);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Nbti, MonotoneInDutyAndAge) {
  const NbtiModel m;
  EXPECT_LT(m.deltaVth(350, 0.2, 10), m.deltaVth(350, 0.8, 10));
  EXPECT_LT(m.deltaVth(350, 0.5, 2), m.deltaVth(350, 0.5, 8));
  EXPECT_DOUBLE_EQ(m.deltaVth(350, 0.0, 10), 0.0);
  EXPECT_DOUBLE_EQ(m.deltaVth(350, 0.5, 0.0), 0.0);
}

TEST(Nbti, SubLinearTimeAccumulation) {
  // y^(1/6): the first year ages more than the tenth year.
  const NbtiModel m;
  const double y1 = m.deltaVth(350, 0.5, 1.0);
  const double y9to10 =
      m.deltaVth(350, 0.5, 10.0) - m.deltaVth(350, 0.5, 9.0);
  EXPECT_GT(y1, 5.0 * y9to10);
}

TEST(Nbti, Fig1bCalibration) {
  // Fig. 1(b): 10-year delay increase at duty 0.5 ~1.1x @25C, ~1.2x @75C,
  // ~1.25-1.3x @100C, ~1.4x @140C (generous +-0.06 bands).
  const NbtiModel m;
  EXPECT_NEAR(m.delayFactor(celsiusToKelvin(25), 0.5, 10.0), 1.08, 0.06);
  EXPECT_NEAR(m.delayFactor(celsiusToKelvin(75), 0.5, 10.0), 1.18, 0.06);
  EXPECT_NEAR(m.delayFactor(celsiusToKelvin(100), 0.5, 10.0), 1.26, 0.06);
  EXPECT_NEAR(m.delayFactor(celsiusToKelvin(140), 0.5, 10.0), 1.42, 0.08);
}

TEST(Nbti, GuardbandScaleMatchesLiterature) {
  // "a loss in the maximum achievable frequency by a factor >= 20% over
  // its lifetime" [11,14,15] — a hot, high-duty 10-year life must land in
  // the 15-35% delay-increase range.
  const NbtiModel m;
  const double f = m.delayFactor(370.0, 0.8, 10.0);
  EXPECT_GT(f, 1.15);
  EXPECT_LT(f, 1.40);
}

TEST(Nbti, EquivalentAgeInvertsExactly) {
  const NbtiModel m;
  for (double age : {0.25, 1.0, 3.0, 7.5, 20.0}) {
    const double dvth = m.deltaVth(355.0, 0.6, age);
    EXPECT_NEAR(m.equivalentAge(355.0, 0.6, dvth), age, 1e-9);
  }
}

TEST(Nbti, EquivalentAgeAcrossConditions) {
  // Degradation earned under hot conditions corresponds to an OLDER
  // equivalent age under cool conditions (cool aging is slower).
  const NbtiModel m;
  const double dvth = m.deltaVth(380.0, 0.5, 2.0);
  EXPECT_GT(m.equivalentAge(330.0, 0.5, dvth), 2.0);
  EXPECT_LT(m.equivalentAge(400.0, 0.5, dvth), 2.0);
}

TEST(Nbti, DelayFactorInversionRoundTrip) {
  const NbtiModel m;
  for (double f : {1.0, 1.05, 1.2, 1.4}) {
    EXPECT_NEAR(m.delayFactorFromDeltaVth(m.deltaVthFromDelayFactor(f)), f,
                1e-12);
  }
}

TEST(Nbti, RejectsInvalidInputs) {
  const NbtiModel m;
  EXPECT_THROW(m.deltaVth(0.0, 0.5, 1.0), Error);
  EXPECT_THROW(m.deltaVth(350.0, 1.5, 1.0), Error);
  EXPECT_THROW(m.deltaVth(350.0, 0.5, -1.0), Error);
  EXPECT_THROW(m.equivalentAge(350.0, 0.0, 0.01), Error);
  EXPECT_THROW(m.delayFactorFromDeltaVth(0.8), Error);  // beyond headroom
}

// --- Delay model: Eq. (8) ---------------------------------------------------

TEST(DelayModel, CellDelaysOrdered) {
  EXPECT_LT(nominalCellDelay(CellKind::Inverter),
            nominalCellDelay(CellKind::Nand2));
  EXPECT_LT(nominalCellDelay(CellKind::Nand2),
            nominalCellDelay(CellKind::Nor2));
  EXPECT_LT(nominalCellDelay(CellKind::Nor2),
            nominalCellDelay(CellKind::FlipFlop));
}

TEST(DelayModel, CellNames) {
  EXPECT_EQ(cellName(CellKind::Inverter), "INV");
  EXPECT_EQ(cellName(CellKind::Nor2), "NOR2");
}

TEST(DelayModel, PathNominalDelayIsSum) {
  std::vector<LogicElement> els = {
      {CellKind::Inverter, 4e-12, 0.5},
      {CellKind::Nand2, 6e-12, 0.5},
      {CellKind::FlipFlop, 18e-12, 0.5},
  };
  const CriticalPath path(els);
  EXPECT_NEAR(path.nominalDelay(), 28e-12, 1e-20);
}

TEST(DelayModel, AgedDelayGrowsFromNominal) {
  const NbtiModel nbti;
  std::vector<LogicElement> els = {{CellKind::Inverter, 4e-12, 1.0},
                                   {CellKind::Nor2, 7e-12, 1.0}};
  const CriticalPath path(els);
  EXPECT_DOUBLE_EQ(path.agedDelay(nbti, 350.0, 0.5, 0.0),
                   path.nominalDelay());
  EXPECT_GT(path.agedDelay(nbti, 350.0, 0.5, 5.0), path.nominalDelay());
  EXPECT_GT(path.agedDelay(nbti, 380.0, 0.5, 5.0),
            path.agedDelay(nbti, 350.0, 0.5, 5.0));
}

TEST(DelayModel, DutyWeightScalesStress) {
  const NbtiModel nbti;
  const CriticalPath stressed({{CellKind::Inverter, 4e-12, 1.0}});
  const CriticalPath relaxed({{CellKind::Inverter, 4e-12, 0.2}});
  EXPECT_GT(stressed.agedDelay(nbti, 360.0, 0.9, 5.0),
            relaxed.agedDelay(nbti, 360.0, 0.9, 5.0));
}

TEST(DelayModel, SynthesizedPathSetShape) {
  Rng rng(11);
  const CorePathSet paths = CorePathSet::synthesize(rng, 6, 24);
  EXPECT_EQ(paths.pathCount(), 6);
  EXPECT_GT(paths.nominalDelay(), 0.0);
  for (int p = 0; p < paths.pathCount(); ++p) {
    const CriticalPath& path = paths.path(p);
    // Launch and capture flops.
    EXPECT_EQ(path.elements().front().kind, CellKind::FlipFlop);
    EXPECT_EQ(path.elements().back().kind, CellKind::FlipFlop);
    EXPECT_GE(static_cast<int>(path.elements().size()), 3);
  }
}

TEST(DelayModel, DelayFactorAlwaysAtLeastOne) {
  Rng rng(12);
  const CorePathSet paths = CorePathSet::synthesize(rng, 4, 16);
  const NbtiModel nbti;
  for (double t : {300.0, 350.0, 400.0})
    for (double d : {0.0, 0.3, 1.0})
      for (double y : {0.0, 0.5, 10.0})
        EXPECT_GE(paths.delayFactor(nbti, t, d, y), 1.0);
}

TEST(DelayModel, Deterministic) {
  Rng a(33), b(33);
  const CorePathSet pa = CorePathSet::synthesize(a, 5, 20);
  const CorePathSet pb = CorePathSet::synthesize(b, 5, 20);
  EXPECT_DOUBLE_EQ(pa.nominalDelay(), pb.nominalDelay());
}

// --- AgingTable --------------------------------------------------------------

class AgingTableFixture : public ::testing::Test {
 protected:
  AgingTableFixture() : rng_(7), paths_(CorePathSet::synthesize(rng_, 4, 16)) {}

  Rng rng_;
  NbtiModel nbti_;
  CorePathSet paths_;
};

TEST_F(AgingTableFixture, MatchesDirectEvaluationAtGridPoints) {
  const AgingTable table(nbti_, paths_);
  // Grid nodes are exact by construction (duty 0.25 = (0.5)^2 lies on the
  // quadratic duty axis; 300 K and 10 years are axis points too).
  const double fromTable = table.delayFactor(300.0, 0.25, 10.0);
  const double direct = paths_.delayFactor(nbti_, 300.0, 0.25, 10.0);
  EXPECT_EQ(std::memcmp(&fromTable, &direct, sizeof(double)), 0)
      << fromTable << " vs " << direct;
}

TEST(AgingTable, FillIsBitwiseThePerCellDefinition) {
  // The fill evaluates each one-axis Eq. (7) factor once per axis point;
  // every cell must still be bitwise CorePathSet::delayFactor there.
  NbtiConfig skewed;
  skewed.alphaPower = 1.7;
  skewed.timeExponent = 0.2;
  skewed.techScale = 45.0;
  AgingTableConfig small;
  small.temperaturePoints = 5;
  small.dutyPoints = 4;
  small.maxAge = 25.0;
  for (const NbtiConfig& nc : {NbtiConfig{}, skewed}) {
    const NbtiModel nbti(nc);
    for (const AgingTableConfig& tc : {AgingTableConfig{}, small}) {
      for (const std::uint64_t seed : {3u, 17u, 2015u}) {
        Rng rng(seed);
        const CorePathSet paths = CorePathSet::synthesize(rng, 5, 20);
        const AgingTable table(nbti, paths, tc);
        const Table3& raw = table.raw();
        for (int i = 0; i < raw.axis0().size(); ++i)
          for (int j = 0; j < raw.axis1().size(); ++j)
            for (int k = 0; k < raw.axis2().size(); ++k) {
              const double cell = raw.at(i, j, k);
              const double direct = paths.delayFactor(
                  nbti, raw.axis0()[i], raw.axis1()[j], raw.axis2()[k]);
              ASSERT_EQ(std::memcmp(&cell, &direct, sizeof(double)), 0)
                  << "seed " << seed << " cell (" << i << ", " << j << ", "
                  << k << "): " << cell << " vs " << direct;
            }
      }
    }
  }
}

TEST(AgingTable, FillRejectsAShiftThatExhaustsTheOverdrive) {
  // At techScale 400 the hot, old corner's dVth exceeds Vdd - Vth0.
  NbtiConfig nc;
  nc.techScale = 400.0;
  const NbtiModel nbti(nc);
  Rng rng(5);
  const CorePathSet paths = CorePathSet::synthesize(rng, 3, 12);
  EXPECT_THROW(AgingTable(nbti, paths), Error);
  EXPECT_THROW(paths.delayFactor(nbti, 420.0, 1.0, 40.0), Error);
}

TEST_F(AgingTableFixture, InterpolationErrorSmall) {
  const AgingTable table(nbti_, paths_);
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const double t = rng.uniform(305.0, 415.0);
    const double d = rng.uniform(0.05, 0.95);
    const double y = rng.uniform(0.5, 12.0);
    const double exact = paths_.delayFactor(nbti_, t, d, y);
    EXPECT_NEAR(table.delayFactor(t, d, y), exact, 0.01 * exact);
  }
}

TEST_F(AgingTableFixture, EquivalentAgeRoundTrip) {
  const AgingTable table(nbti_, paths_);
  for (double age : {0.5, 2.0, 5.0, 9.0}) {
    const double f = table.delayFactor(360.0, 0.6, age);
    EXPECT_NEAR(table.equivalentAge(360.0, 0.6, f), age, 0.05);
  }
}

TEST_F(AgingTableFixture, EquivalentAgeClampsAtBounds) {
  const AgingTable table(nbti_, paths_);
  EXPECT_DOUBLE_EQ(table.equivalentAge(360.0, 0.6, 1.0), 0.0);
  const double beyond = table.delayFactor(360.0, 0.6, table.maxAge()) + 1.0;
  EXPECT_DOUBLE_EQ(table.equivalentAge(360.0, 0.6, beyond), table.maxAge());
}

TEST_F(AgingTableFixture, RejectsInvalidLookups) {
  const AgingTable table(nbti_, paths_);
  EXPECT_THROW(table.delayFactor(350.0, 1.5, 1.0), Error);
  EXPECT_THROW(table.delayFactor(350.0, 0.5, -1.0), Error);
  EXPECT_THROW(table.equivalentAge(350.0, 0.0, 1.1), Error);
  EXPECT_THROW(table.equivalentAge(350.0, 0.5, 0.9), Error);
}

TEST_F(AgingTableFixture, DelayFactorBatchIsBitwiseEqualToScalarLookups) {
  const AgingTable table(nbti_, paths_);
  const Axis& tAxis = table.raw().axis0();
  const Axis& dAxis = table.raw().axis1();
  const Axis& yAxis = table.raw().axis2();

  // Probe grid points (cell edges) interleaved with random interior and
  // clamped coordinates; one warm cursor array across repeated sweeps.
  std::vector<double> temps, duties, ages;
  Rng rng(31);
  for (int i = 0; i < 48; ++i) {
    switch (i % 3) {
      case 0:
        temps.push_back(tAxis[rng.uniformInt(tAxis.size())]);
        duties.push_back(dAxis[rng.uniformInt(dAxis.size())]);
        ages.push_back(yAxis[rng.uniformInt(yAxis.size())]);
        break;
      case 1:
        temps.push_back(rng.uniform(tAxis.front(), tAxis.back()));
        duties.push_back(rng.uniform(0.0, 1.0));
        ages.push_back(rng.uniform(0.0, table.maxAge()));
        break;
      default:  // beyond the temperature/age range: the clamp path
        temps.push_back(rng.uniform(tAxis.back(), tAxis.back() + 50.0));
        duties.push_back(rng.uniform(0.0, 1.0));
        ages.push_back(rng.uniform(table.maxAge(), 2.0 * table.maxAge()));
        break;
    }
  }
  const int n = static_cast<int>(temps.size());
  std::vector<double> batched(temps.size());
  std::vector<AgingTable::Cursor> cursors(temps.size());
  for (int sweep = 0; sweep < 3; ++sweep) {
    table.delayFactorBatch(temps.data(), duties.data(), ages.data(), n,
                           batched.data(), cursors.data());
    for (int i = 0; i < n; ++i) {
      const auto s = static_cast<std::size_t>(i);
      EXPECT_EQ(batched[s], table.delayFactor(temps[s], duties[s], ages[s]))
          << "sweep " << sweep << " element " << i;
    }
  }
}

TEST_F(AgingTableFixture, BatchedInverseAndAdvanceMatchScalarReference) {
  // The §3.10 A/B twin: a table built with scalarReference set runs
  // the original per-lookup grid searches and the explicit 60-iteration
  // bisection; the batched default replays them through pinned cells.
  // Sweep the full (T, d) grid — every cell edge and midpoint — and
  // demand bitwise equality, with one deliberately stale warm cursor.
  AgingTableConfig scalarConfig;
  scalarConfig.scalarReference = true;
  const AgingTable scalar(nbti_, paths_, scalarConfig);
  const AgingTable batched(nbti_, paths_);
  ASSERT_TRUE(scalar.usesScalarAging());
  ASSERT_FALSE(batched.usesScalarAging());

  const Axis& tAxis = batched.raw().axis0();
  const Axis& dAxis = batched.raw().axis1();
  std::vector<double> temps, duties;
  for (int i = 0; i < tAxis.size(); ++i) {
    temps.push_back(tAxis[i]);
    if (i + 1 < tAxis.size()) temps.push_back(0.5 * (tAxis[i] + tAxis[i + 1]));
  }
  for (int j = 0; j < dAxis.size(); ++j) {
    if (dAxis[j] > 0.0) duties.push_back(dAxis[j]);
    if (j + 1 < dAxis.size())
      duties.push_back(0.5 * (dAxis[j] + dAxis[j + 1]));
  }

  AgingTable::Cursor inverseCursor;
  AgingTable::Cursor advanceCursor;
  AgingTable::Cursor scalarCursor;  // exercised but inert on the scalar path
  for (double t : temps) {
    for (double d : duties) {
      for (double age : {0.0, 0.35, 2.0, batched.maxAge()}) {
        const double target = scalar.delayFactor(t, d, age);
        EXPECT_EQ(batched.equivalentAge(t, d, target, inverseCursor),
                  scalar.equivalentAge(t, d, target))
            << "T=" << t << " d=" << d << " age=" << age;
      }
      // Boundary clamps: at or below the year-0 value and beyond maxAge.
      EXPECT_EQ(batched.equivalentAge(t, d, 1.0, inverseCursor), 0.0);
      const double beyond = scalar.delayFactor(t, d, batched.maxAge()) + 1.0;
      EXPECT_EQ(batched.equivalentAge(t, d, beyond, inverseCursor),
                batched.maxAge());
      // The combined epoch-advance kernel.
      const double current = scalar.delayFactor(t, d, 1.5);
      EXPECT_EQ(batched.advanceDelayFactor(t, d, 0.25, current, advanceCursor),
                scalar.advanceDelayFactor(t, d, 0.25, current, scalarCursor))
          << "T=" << t << " d=" << d;
    }
  }
}

// --- Health ---------------------------------------------------------------

TEST_F(AgingTableFixture, HealthAdvanceMatchesContinuousAging) {
  // Aging 4 years in 16 quarterly epochs under constant conditions must
  // match one 4-year step (the effective-age composition property).
  const AgingTable table(nbti_, paths_);
  CoreAgingState stepped;
  for (int e = 0; e < 16; ++e) stepped.advance(table, 355.0, 0.6, 0.25);
  CoreAgingState once;
  once.advance(table, 355.0, 0.6, 4.0);
  EXPECT_NEAR(stepped.delayFactor(), once.delayFactor(), 0.003);
}

TEST_F(AgingTableFixture, HealthNeverRecovers) {
  const AgingTable table(nbti_, paths_);
  CoreAgingState s;
  s.advance(table, 390.0, 0.9, 2.0);
  const double afterHot = s.delayFactor();
  // A cool, idle epoch must not reduce the accumulated degradation.
  s.advance(table, 305.0, 0.05, 1.0);
  EXPECT_GE(s.delayFactor(), afterHot);
}

TEST_F(AgingTableFixture, ZeroDutyMeansNoAging) {
  const AgingTable table(nbti_, paths_);
  CoreAgingState s;
  s.advance(table, 400.0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(s.delayFactor(), 1.0);
  EXPECT_DOUBLE_EQ(s.health(), 1.0);
}

TEST_F(AgingTableFixture, HotterEpochsAgeFaster) {
  const AgingTable table(nbti_, paths_);
  CoreAgingState hot, cool;
  hot.advance(table, 390.0, 0.6, 1.0);
  cool.advance(table, 330.0, 0.6, 1.0);
  EXPECT_GT(hot.delayFactor(), cool.delayFactor());
}

TEST_F(AgingTableFixture, HealthMapAccessors) {
  const AgingTable table(nbti_, paths_);
  HealthMap hm({3.0e9, 2.5e9, 3.5e9});
  EXPECT_EQ(hm.coreCount(), 3);
  EXPECT_DOUBLE_EQ(hm.currentFmax(1), 2.5e9);
  hm.advance(1, table, 380.0, 0.8, 2.0);
  EXPECT_LT(hm.currentFmax(1), 2.5e9);
  EXPECT_LT(hm.health(1), 1.0);
  EXPECT_DOUBLE_EQ(hm.health(0), 1.0);
  EXPECT_DOUBLE_EQ(hm.initialFmax(1), 2.5e9);
  const auto all = hm.healthAll();
  EXPECT_EQ(all.size(), 3u);
  EXPECT_LT(all[1], all[0]);
}

TEST_F(AgingTableFixture, SensorRestoreRoundTrip) {
  const CoreAgingState s = CoreAgingState::fromDelayFactor(1.15);
  EXPECT_DOUBLE_EQ(s.delayFactor(), 1.15);
  EXPECT_NEAR(s.health(), 1.0 / 1.15, 1e-12);
  EXPECT_THROW(CoreAgingState::fromDelayFactor(0.9), Error);
}

TEST(Health, MapRejectsBadInputs) {
  EXPECT_THROW(HealthMap(std::vector<Hertz>{}), Error);
  EXPECT_THROW(HealthMap({1e9, -2e9}), Error);
  HealthMap hm({1e9});
  EXPECT_THROW(hm.health(1), Error);
}

// --- HCI / combined aging (extension) ----------------------------------------

TEST(Hci, MonotoneInAllStressDrivers) {
  const HciModel m;
  EXPECT_LT(m.deltaVth(330.0, 0.5, 3e9, 5.0), m.deltaVth(380.0, 0.5, 3e9, 5.0));
  EXPECT_LT(m.deltaVth(350.0, 0.2, 3e9, 5.0), m.deltaVth(350.0, 0.8, 3e9, 5.0));
  EXPECT_LT(m.deltaVth(350.0, 0.5, 1e9, 5.0), m.deltaVth(350.0, 0.5, 3e9, 5.0));
  EXPECT_LT(m.deltaVth(350.0, 0.5, 3e9, 2.0), m.deltaVth(350.0, 0.5, 3e9, 8.0));
}

TEST(Hci, ZeroStressMeansZeroShift) {
  const HciModel m;
  EXPECT_DOUBLE_EQ(m.deltaVth(350.0, 0.0, 3e9, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(m.deltaVth(350.0, 0.5, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(m.deltaVth(350.0, 0.5, 3e9, 0.0), 0.0);
}

TEST(Hci, FrequencyScalingIsLinear) {
  const HciModel m;
  EXPECT_NEAR(m.deltaVth(350.0, 0.5, 3e9, 5.0),
              2.0 * m.deltaVth(350.0, 0.5, 1.5e9, 5.0), 1e-15);
}

TEST(Hci, EquivalentAgeRoundTrip) {
  const HciModel m;
  for (double age : {0.5, 2.0, 10.0, 25.0}) {
    const Volts v = m.deltaVth(355.0, 0.6, 2.5e9, age);
    EXPECT_NEAR(m.equivalentAge(355.0, 0.6, 2.5e9, v), age, 1e-9);
  }
}

TEST(Hci, WeakerTemperatureSlopeThanNbti) {
  // HCI's exp(-600/T) must grow more slowly over a temperature delta than
  // NBTI's exp(-1500/T).
  const HciModel hci;
  const NbtiModel nbti;
  const double hciRatio = hci.deltaVth(380.0, 0.5, 3e9, 5.0) /
                          hci.deltaVth(330.0, 0.5, 3e9, 5.0);
  const double nbtiRatio =
      nbti.deltaVth(380.0, 0.5, 5.0) / nbti.deltaVth(330.0, 0.5, 5.0);
  EXPECT_LT(hciRatio, nbtiRatio);
}

TEST(Hci, CalibratedShareAtReferencePoint) {
  // Calibration target: HCI ~ a quarter of the combined shift at
  // (350 K, duty 0.5, activity 0.5, nominal f, 10 years).
  const CombinedAgingModel combined;
  const double share = combined.hciShare(350.0, 0.5, 0.5, 3.0e9, 10.0);
  EXPECT_GT(share, 0.12);
  EXPECT_LT(share, 0.35);
}

TEST(Hci, CombinedDelayExceedsNbtiAlone) {
  const CombinedAgingModel combined;
  const NbtiModel nbti;
  for (double y : {1.0, 5.0, 10.0}) {
    EXPECT_GT(combined.delayFactor(355.0, 0.5, 0.6, 3e9, y),
              nbti.delayFactor(355.0, 0.5, y));
  }
}

TEST(Hci, LateLifeShareGrows) {
  // t^0.45 vs t^(1/6): HCI's share of the total shift must grow with age.
  const CombinedAgingModel combined;
  EXPECT_LT(combined.hciShare(350.0, 0.5, 0.5, 3e9, 1.0),
            combined.hciShare(350.0, 0.5, 0.5, 3e9, 10.0));
}

TEST(Hci, RejectsInvalid) {
  const HciModel m;
  EXPECT_THROW(m.deltaVth(0.0, 0.5, 3e9, 1.0), Error);
  EXPECT_THROW(m.deltaVth(350.0, 1.5, 3e9, 1.0), Error);
  EXPECT_THROW(m.deltaVth(350.0, 0.5, -1.0, 1.0), Error);
  EXPECT_THROW(m.equivalentAge(350.0, 0.0, 3e9, 0.01), Error);
}

// --- Arrhenius MTTF / Miner damage (extension) --------------------------------

TEST(Mttf, PaperSensitivityTwoXPer12K) {
  // Intro claim [22]: "a difference between 10 C - 15 C can result in a
  // 2x difference in the mean-time-to-failure".
  const MttfModel m;
  const double ratio = m.mttf(338.0) / m.mttf(350.5);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.4);
}

TEST(Mttf, ReferencePointAndMonotonicity) {
  const MttfModel m;
  EXPECT_NEAR(m.mttf(338.15), 30.0, 1e-9);
  double prev = 1e300;
  for (Kelvin t = 310.0; t <= 400.0; t += 10.0) {
    const double v = m.mttf(t);
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(Mttf, MinerRuleLinearAtConstantTemperature) {
  const MttfModel m;
  DamageAccumulator a;
  const Kelvin t = 350.0;
  a.accumulate(m, t, m.mttf(t));  // one full MTTF of exposure
  EXPECT_NEAR(a.damage(), 1.0, 1e-12);
  a.accumulate(m, t, m.mttf(t) / 2.0);
  EXPECT_NEAR(a.damage(), 1.5, 1e-12);
}

TEST(Mttf, HotterHistoryConsumesMoreLife) {
  const MttfModel m;
  DamageAccumulator cool, hot;
  cool.accumulate(m, 335.0, 5.0);
  hot.accumulate(m, 355.0, 5.0);
  EXPECT_GT(hot.damage(), 2.0 * cool.damage());
}

TEST(Mttf, ChipSummaryIsSeriesSystem) {
  const ChipReliability r = summarizeReliability({0.1, 0.4, 0.2}, 10.0);
  EXPECT_DOUBLE_EQ(r.worstDamage, 0.4);
  EXPECT_NEAR(r.averageDamage, 0.7 / 3.0, 1e-12);
  // Worst core at 0.4 after 10 years -> projected chip MTTF 25 years.
  EXPECT_NEAR(r.projectedMttf, 25.0, 1e-9);
}

TEST(Mttf, CheckpointRoundTrip) {
  const DamageAccumulator a = DamageAccumulator::fromDamage(0.37);
  EXPECT_DOUBLE_EQ(a.damage(), 0.37);
  EXPECT_THROW(DamageAccumulator::fromDamage(-0.1), Error);
}

TEST(Mttf, RejectsInvalid) {
  const MttfModel m;
  EXPECT_THROW(m.mttf(0.0), Error);
  EXPECT_THROW(summarizeReliability({}, 1.0), Error);
  MttfConfig bad;
  bad.activationEnergyEv = 0.0;
  EXPECT_THROW(MttfModel{bad}, Error);
}

// --- Parameterized: aging monotonicity properties ---------------------------

struct AgingPoint {
  double temperature;
  double duty;
};

class AgingMonotone : public ::testing::TestWithParam<AgingPoint> {};

TEST_P(AgingMonotone, DelayFactorNonDecreasingInAge) {
  const NbtiModel m;
  const AgingPoint p = GetParam();
  double prev = 1.0;
  for (double y = 0.0; y <= 20.0; y += 0.5) {
    const double f = m.delayFactor(p.temperature, p.duty, y);
    EXPECT_GE(f, prev - 1e-12);
    prev = f;
  }
}

TEST_P(AgingMonotone, HealthWithinUnitInterval) {
  Rng rng(5);
  const CorePathSet paths = CorePathSet::synthesize(rng, 3, 12);
  const NbtiModel nbti;
  const AgingTable table(nbti, paths);
  CoreAgingState s;
  const AgingPoint p = GetParam();
  for (int e = 0; e < 40; ++e) {
    s.advance(table, p.temperature, p.duty, 0.25);
    EXPECT_GT(s.health(), 0.0);
    EXPECT_LE(s.health(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConditionSweep, AgingMonotone,
    ::testing::Values(AgingPoint{310.0, 0.2}, AgingPoint{330.0, 0.5},
                      AgingPoint{355.0, 0.5}, AgingPoint{370.0, 0.8},
                      AgingPoint{400.0, 0.95}, AgingPoint{415.0, 1.0}));

}  // namespace
}  // namespace hayat
