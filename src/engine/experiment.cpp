#include "engine/experiment.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace hayat::engine {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void visitSystem(SystemConfig& c, SpecFieldVisitor& v) {
  PopulationConfig& p = c.population;
  // GridShape exposes no setters; rebuild it after the visit so a decoder
  // (or mutation test) can resize the grid.
  int rows = p.coreGrid.rows();
  int cols = p.coreGrid.cols();
  v.field("pop.rows", rows);
  v.field("pop.cols", cols);
  p.coreGrid = GridShape(rows, cols);
  v.field("pop.coreWidth", p.coreWidth);
  v.field("pop.coreHeight", p.coreHeight);
  v.field("pop.pointsPerCoreEdge", p.pointsPerCoreEdge);
  v.field("pop.nominalFrequency", p.nominalFrequency);
  v.field("pop.nominalVth", p.nominalVth);
  v.field("pop.sigmaFraction", p.sigmaFraction);
  v.field("pop.correlationRangeFraction", p.correlationRangeFraction);
  v.field("pop.globalFraction", p.globalFraction);
  v.field("pop.nuggetFraction", p.nuggetFraction);
  v.field("pop.subthresholdSlopeFactor", p.subthresholdSlopeFactor);
  v.field("pop.criticalPathPoints", p.criticalPathPoints);

  NbtiConfig& n = c.nbti;
  v.field("nbti.vdd", n.vdd);
  v.field("nbti.nominalVth", n.nominalVth);
  v.field("nbti.techScale", n.techScale);
  v.field("nbti.alphaPower", n.alphaPower);
  v.field("nbti.timeExponent", n.timeExponent);

  AgingTableConfig& a = c.agingTable;
  v.field("table.temperatureMin", a.temperatureMin);
  v.field("table.temperatureMax", a.temperatureMax);
  v.field("table.temperaturePoints", a.temperaturePoints);
  v.field("table.dutyPoints", a.dutyPoints);
  v.field("table.maxAge", a.maxAge);

  LeakageConfig& l = c.leakage;
  v.field("leak.nominalCoreLeakage", l.nominalCoreLeakage);
  v.field("leak.gatedCoreLeakage", l.gatedCoreLeakage);
  v.field("leak.referenceTemperature", l.referenceTemperature);
  v.field("leak.nominalVth", l.nominalVth);
  v.field("leak.subthresholdSlopeFactor", l.subthresholdSlopeFactor);

  // The thermal floorplan is overwritten from the population geometry at
  // System construction, so only the package parameters are walked.
  ThermalConfig& t = c.thermal;
  v.field("thermal.ambient", t.ambient);
  v.field("thermal.dieThickness", t.dieThickness);
  v.field("thermal.dieConductivity", t.dieConductivity);
  v.field("thermal.dieVolumetricHeat", t.dieVolumetricHeat);
  v.field("thermal.timThickness", t.timThickness);
  v.field("thermal.timConductivity", t.timConductivity);
  v.field("thermal.spreaderThickness", t.spreaderThickness);
  v.field("thermal.spreaderConductivity", t.spreaderConductivity);
  v.field("thermal.spreaderVolumetricHeat", t.spreaderVolumetricHeat);
  v.field("thermal.sinkThickness", t.sinkThickness);
  v.field("thermal.sinkConductivity", t.sinkConductivity);
  v.field("thermal.sinkVolumetricHeat", t.sinkVolumetricHeat);
  v.field("thermal.spreaderSinkResistancePerTile",
          t.spreaderSinkResistancePerTile);
  v.field("thermal.convectionResistance", t.convectionResistance);

  // EpochConfig minus thermalSensorSeed (derived per task, see the
  // header's seed rule).
  EpochConfig& e = c.epoch;
  v.field("epoch.window", e.window);
  v.field("epoch.step", e.step);
  v.field("epoch.nominalFrequency", e.nominalFrequency);
  v.field("epoch.dtm.tsafe", e.dtm.tsafe);
  v.field("epoch.dtm.coldMargin", e.dtm.coldMargin);
  v.field("epoch.dtm.throttleFactor", e.dtm.throttleFactor);
  v.field("epoch.dtm.minimumFrequency", e.dtm.minimumFrequency);
  v.field("epoch.dtm.migrationCooldownChecks", e.dtm.migrationCooldownChecks);
  v.field("epoch.sensor.gaussianSigma", e.thermalSensorNoise.gaussianSigma);
  v.field("epoch.sensor.quantization", e.thermalSensorNoise.quantization);

  v.field("pathsPerCore", c.pathsPerCore);
  v.field("elementsPerPath", c.elementsPerPath);
}

void visitLifetime(LifetimeConfig& c, SpecFieldVisitor& v) {
  // workloadSeed / sensorSeed are derived per task and excluded.
  v.field("life.horizon", c.horizon);
  v.field("life.epochLength", c.epochLength);
  v.field("life.tsafe", c.tsafe);
  v.field("life.nominalFrequency", c.nominalFrequency);
  v.field("life.freshMixEachEpoch", c.freshMixEachEpoch);
  v.field("life.mixChurn", c.mixChurn);
  v.field("life.incrementalRemap", c.incrementalRemap);
  v.field("life.healthSensor.gaussianSigma", c.healthSensorNoise.gaussianSigma);
  v.field("life.healthSensor.quantization", c.healthSensorNoise.quantization);

  int dvfsLevels = c.dvfs.has_value() ? c.dvfs->levelCount() : 0;
  v.field("life.dvfs.levels", dvfsLevels);
  std::vector<Hertz> levels;
  for (int i = 0; c.dvfs.has_value() && i < c.dvfs->levelCount(); ++i)
    levels.push_back(c.dvfs->level(i));
  levels.resize(static_cast<std::size_t>(dvfsLevels < 0 ? 0 : dvfsLevels),
                3.0e9);
  for (Hertz& level : levels) v.field("life.dvfs.level", level);
  if (levels.empty())
    c.dvfs.reset();
  else
    c.dvfs = FrequencyLadder(levels);

  // Failure Monte Carlo knobs (DESIGN.md §3.14).  samples flips the run
  // into distribution mode, so a distribution spec can never share a
  // signature — or a cache slot — with its point-MTTF twin.  failure.seed
  // is derived per task (SeedStream::Failure) and excluded.
  FailureConfig& f = c.failure;
  v.field("life.failure.samples", f.samples);
  v.field("life.failure.weibullShape", f.weibullShape);
  v.field("life.failure.minAliveCoreFraction", f.minAliveCoreFraction);
  v.field("life.failure.em.activationEnergyEv", f.em.activationEnergyEv);
  v.field("life.failure.em.currentExponent", f.em.currentExponent);
  v.field("life.failure.em.referenceMttfYears", f.em.referenceMttfYears);
  v.field("life.failure.em.referenceTemperature", f.em.referenceTemperature);
  v.field("life.failure.em.referenceCurrentFactor",
          f.em.referenceCurrentFactor);
  v.field("life.failure.tddb.activationEnergyEv", f.tddb.activationEnergyEv);
  v.field("life.failure.tddb.voltageExponent", f.tddb.voltageExponent);
  v.field("life.failure.tddb.vdd", f.tddb.vdd);
  v.field("life.failure.tddb.referenceVdd", f.tddb.referenceVdd);
  v.field("life.failure.tddb.referenceMttfYears", f.tddb.referenceMttfYears);
  v.field("life.failure.tddb.referenceTemperature",
          f.tddb.referenceTemperature);

  // A fixed mix cannot be canonically serialized here; walk its presence
  // (as the application count) so two specs differing only in the mix
  // never share a signature silently.  The engine additionally disables
  // the result cache and distributed dispatch for fixed-mix specs.
  int mixApps = c.fixedMix.has_value()
                    ? static_cast<int>(c.fixedMix->applications.size())
                    : 0;
  v.field("life.fixedMix", mixApps);
  if (mixApps == 0) {
    c.fixedMix.reset();
  } else {
    HAYAT_REQUIRE(c.fixedMix.has_value(),
                  "a fixed workload mix cannot be reconstructed from its "
                  "application count (fixedMix specs are not serializable)");
  }
}

/// Appends `key=value` with full round-trip precision for doubles.
class SignatureWriter final : public SpecFieldVisitor {
 public:
  void field(const char* key, double& value) override {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ << key << '=' << buf << '\n';
  }
  void field(const char* key, int& value) override {
    out_ << key << '=' << value << '\n';
  }
  void field(const char* key, bool& value) override {
    out_ << key << '=' << (value ? 1 : 0) << '\n';
  }
  void field(const char* key, std::uint64_t& value) override {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out_ << key << '=' << buf << '\n';
  }
  void field(const char* key, std::string& value) override {
    out_ << key << '=' << value << '\n';
  }

  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

}  // namespace

void visitSpecFields(ExperimentSpec& spec, SpecFieldVisitor& v) {
  v.field("populationSeed", spec.populationSeed);
  v.field("baseSeed", spec.baseSeed);
  v.field("repetitions", spec.repetitions);

  int chipCount = static_cast<int>(spec.chips.size());
  v.field("chips.count", chipCount);
  spec.chips.resize(static_cast<std::size_t>(chipCount < 0 ? 0 : chipCount),
                    0);
  for (int& chip : spec.chips) v.field("chip", chip);

  int darkCount = static_cast<int>(spec.darkFractions.size());
  v.field("darks.count", darkCount);
  spec.darkFractions.resize(
      static_cast<std::size_t>(darkCount < 0 ? 0 : darkCount), 0.5);
  for (double& dark : spec.darkFractions) v.field("dark", dark);

  int policyCount = static_cast<int>(spec.policies.size());
  v.field("policies.count", policyCount);
  spec.policies.resize(
      static_cast<std::size_t>(policyCount < 0 ? 0 : policyCount));
  for (PolicySpec& policy : spec.policies) {
    v.field("policy.name", policy.name);
    int paramCount = static_cast<int>(policy.params.size());
    v.field("policy.params", paramCount);
    // Maps have no positional access; visit (key, value) pairs through a
    // scratch vector and rebuild, so a decoder can repopulate them.
    std::vector<std::pair<std::string, double>> params(policy.params.begin(),
                                                       policy.params.end());
    params.resize(static_cast<std::size_t>(paramCount < 0 ? 0 : paramCount),
                  {"knob", 0.0});
    policy.params.clear();
    for (auto& [key, value] : params) {
      v.field("policy.param.key", key);
      v.field("policy.param.value", value);
      policy.params[key] = value;
    }
  }

  visitSystem(spec.system, v);
  visitLifetime(spec.lifetime, v);
}

std::uint64_t deriveSeed(std::uint64_t baseSeed, int chip, int repetition,
                         SeedStream stream) {
  const std::uint64_t lane =
      std::uint64_t{0x100000001} * static_cast<std::uint64_t>(stream) +
      std::uint64_t{0x10001} * static_cast<std::uint64_t>(chip) +
      static_cast<std::uint64_t>(repetition);
  return splitmix64(baseSeed ^ splitmix64(lane));
}

std::string specSignature(const ExperimentSpec& spec) {
  ExperimentSpec copy = spec;  // the walk takes mutable refs; keep callers const
  SignatureWriter w;
  // v5: the sweep-wide prune field left the walk with spatial pruning;
  // the bump makes that layout change explicit.
  int version = 5;
  w.field("spec.version", version);
  visitSpecFields(copy, w);
  return w.str();
}

std::uint64_t specHash(const ExperimentSpec& spec) {
  const std::string sig = specSignature(spec);
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  for (const char ch : sig) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001B3ull;  // FNV prime
  }
  return h;
}

}  // namespace hayat::engine
