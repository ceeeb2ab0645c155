// ExperimentSpec — the hashable description of a population experiment.
//
// Every figure in the paper is a fan-out over {chips x policies x dark
// fractions x repetition seeds} of the same lifetime simulation.  A spec
// captures that whole product declaratively: the system assembly
// (SystemConfig), the lifetime driver template (LifetimeConfig), the
// policies by name (PolicyRegistry factories, so each run instantiates
// its own policy), and the population/seed axes.  Because the spec
// serializes to a canonical signature, it hashes stably across runs and
// keys the on-disk result cache (result_cache.hpp).
//
// Seed derivation rule
// --------------------
// No run inherits a hidden seed default (the old code shared, e.g.,
// thermalSensorSeed = 515 across every repetition).  Instead every
// stochastic stream of task (chip c, repetition r) derives from the
// spec's single baseSeed:
//
//     seed(stream, c, r) = splitmix64(baseSeed
//                                     ^ splitmix64(0x100000001 * stream
//                                                  + 0x10001 * c + r))
//
// with stream ids Workload = 1, HealthSensor = 2, ThermalSensor = 3
// (deriveSeed below).  Distinct (stream, chip, repetition) triples get
// decorrelated seeds; repetition 0 of chip 0 does NOT collapse onto the
// raw baseSeed.  The LifetimeConfig/EpochConfig seed fields inside the
// spec are therefore *outputs* of task expansion, never inputs, and are
// excluded from the signature.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lifetime.hpp"
#include "core/system.hpp"
#include "runtime/policy_registry.hpp"

namespace hayat::engine {

/// Stochastic streams a task consumes (see the derivation rule above).
enum class SeedStream : std::uint64_t {
  Workload = 1,       ///< LifetimeConfig::workloadSeed
  HealthSensor = 2,   ///< LifetimeConfig::sensorSeed
  ThermalSensor = 3,  ///< EpochConfig::thermalSensorSeed
  Failure = 4,        ///< LifetimeConfig::failure.seed (Monte Carlo)
};

/// The documented seed-derivation rule.
std::uint64_t deriveSeed(std::uint64_t baseSeed, int chip, int repetition,
                         SeedStream stream);

/// One experiment: the full task product the engine expands.
struct ExperimentSpec {
  /// Label used for cache file names and reports (not hashed).
  std::string name = "experiment";

  SystemConfig system;      ///< chip assembly (Section V defaults)
  /// Lifetime driver template.  minDarkFraction and the seed fields are
  /// overwritten per task (from darkFractions and baseSeed); every other
  /// field applies to all runs.
  LifetimeConfig lifetime;

  std::vector<PolicySpec> policies = {{"Hayat", {}}};
  std::vector<int> chips = {0};             ///< population indices
  std::vector<double> darkFractions = {0.5};
  int repetitions = 1;                      ///< independent seed draws

  std::uint64_t populationSeed = 2015;      ///< variation-map population
  std::uint64_t baseSeed = 99;              ///< root of all derived seeds

  /// Number of (chip, dark, policy, repetition) tasks.
  int taskCount() const {
    return static_cast<int>(chips.size() * darkFractions.size() *
                            policies.size()) *
           repetitions;
  }
};

/// Visitor over the canonical walk of a spec's result-affecting fields.
/// The walk is the single source of truth for which fields matter: the
/// signature (and hence the hash and the result cache), the wire codec
/// that ships specs to worker processes (wire.hpp), and the hash property
/// tests all iterate the same sequence.  Visitors receive mutable
/// references; list-sized fields are preceded by their count, and a
/// visitor that changes a count causes the walker to resize the list
/// before visiting its elements (which is how the wire decoder
/// reconstructs variable-length fields).
class SpecFieldVisitor {
 public:
  virtual ~SpecFieldVisitor() = default;
  virtual void field(const char* key, int& value) = 0;
  virtual void field(const char* key, bool& value) = 0;
  virtual void field(const char* key, double& value) = 0;
  virtual void field(const char* key, std::uint64_t& value) = 0;
  virtual void field(const char* key, std::string& value) = 0;
};

/// Walks every result-affecting field of `spec` in canonical order.  The
/// spec name and the per-task derived seed fields (see the seed rule
/// above) are NOT part of the walk.  Throws if a visitor materializes a
/// fixed workload mix out of thin air (a fixedMix is only representable
/// by its application count; see wire.hpp).
void visitSpecFields(ExperimentSpec& spec, SpecFieldVisitor& visitor);

/// Canonical text serialization of every result-affecting field.  Two
/// specs with equal signatures produce bit-identical results; any change
/// to a hashed field changes the signature.
std::string specSignature(const ExperimentSpec& spec);

/// FNV-1a 64-bit hash of the signature — the result-cache key.  Stable
/// across processes and platforms.
std::uint64_t specHash(const ExperimentSpec& spec);

}  // namespace hayat::engine
