// ExperimentEngine: deterministic parallel fan-out, stable spec hashing,
// and the spec-keyed result cache.
//
// The determinism contract is the strong one: the merged SweepTable must
// be *bit-identical* across worker counts (results are merged by task
// index, never by completion order), and a cache hit must answer without
// a single EpochSimulator invocation.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/experiment.hpp"
#include "engine/result_cache.hpp"
#include "engine/task_pool.hpp"
#include "engine/wire.hpp"
#include "runtime/epoch.hpp"

namespace hayat::engine {
namespace {

/// Small-but-real spec: 2 chips x 2 policies on a 4x4 grid, 2 epochs.
ExperimentSpec tinySpec() {
  ExperimentSpec spec;
  spec.name = "engine-test";
  spec.system.population.coreGrid = {4, 4};
  spec.lifetime.horizon = 0.5;
  spec.lifetime.epochLength = 0.25;
  spec.policies = {{"VAA", {}}, {"Hayat", {}}};
  spec.chips = {0, 1};
  spec.darkFractions = {0.5};
  return spec;
}

/// `spec` on the dense reference LU and/or the scalar aging reference.
ExperimentSpec withReferences(ExperimentSpec spec, bool dense, bool scalar) {
  spec.system.thermal.solver =
      dense ? RcSolver::Mode::Dense : RcSolver::Mode::Banded;
  spec.system.agingTable.scalarReference = scalar;
  return spec;
}

EngineConfig noCache(int workers) {
  EngineConfig config;
  config.workers = workers;
  config.cache = false;
  return config;
}

/// Bitwise table equality — the determinism contract, not approximate.
void expectIdentical(const SweepTable& a, const SweepTable& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const RunResult& x = a.runs[i];
    const RunResult& y = b.runs[i];
    EXPECT_EQ(x.chip, y.chip);
    EXPECT_EQ(x.repetition, y.repetition);
    EXPECT_EQ(x.darkFraction, y.darkFraction);
    EXPECT_EQ(x.policy, y.policy);
    EXPECT_EQ(x.ambient, y.ambient);
    EXPECT_EQ(x.lifetime.initialFmax, y.lifetime.initialFmax);
    EXPECT_EQ(x.lifetime.finalFmax, y.lifetime.finalFmax);
    EXPECT_EQ(x.lifetime.coreDamage, y.lifetime.coreDamage);
    ASSERT_EQ(x.lifetime.epochs.size(), y.lifetime.epochs.size());
    for (std::size_t e = 0; e < x.lifetime.epochs.size(); ++e) {
      const EpochRecord& p = x.lifetime.epochs[e];
      const EpochRecord& q = y.lifetime.epochs[e];
      EXPECT_EQ(p.startYear, q.startYear);
      EXPECT_EQ(p.dtmEvents, q.dtmEvents);
      EXPECT_EQ(p.migrations, q.migrations);
      EXPECT_EQ(p.chipPeak, q.chipPeak);
      EXPECT_EQ(p.chipTimeAverage, q.chipTimeAverage);
      EXPECT_EQ(p.chipFmax, q.chipFmax);
      EXPECT_EQ(p.averageFmax, q.averageFmax);
      EXPECT_EQ(p.minHealth, q.minHealth);
      EXPECT_EQ(p.averageHealth, q.averageHealth);
      EXPECT_EQ(p.throughputRatio, q.throughputRatio);
    }
  }
}

TEST(ExperimentSpecTest, ExpandOrdersChipMajorAndResolvesSeeds) {
  ExperimentSpec spec = tinySpec();
  spec.repetitions = 2;
  const std::vector<RunTask> tasks = ExperimentEngine::expand(spec);
  ASSERT_EQ(tasks.size(), 8u);  // 2 chips x 1 dark x 2 policies x 2 reps

  // chip-major, then dark, then policy, then repetition.
  EXPECT_EQ(tasks[0].chip, 0);
  EXPECT_EQ(tasks[0].policy.name, "VAA");
  EXPECT_EQ(tasks[0].repetition, 0);
  EXPECT_EQ(tasks[1].repetition, 1);
  EXPECT_EQ(tasks[2].policy.name, "Hayat");
  EXPECT_EQ(tasks[4].chip, 1);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(tasks[i].index, static_cast<int>(i));

  // Every stochastic stream follows the documented derivation rule; no
  // task inherits a hidden default.
  for (const RunTask& t : tasks) {
    EXPECT_EQ(t.lifetime.workloadSeed,
              deriveSeed(spec.baseSeed, t.chip, t.repetition,
                         SeedStream::Workload));
    EXPECT_EQ(t.lifetime.sensorSeed,
              deriveSeed(spec.baseSeed, t.chip, t.repetition,
                         SeedStream::HealthSensor));
    EXPECT_EQ(t.system.epoch.thermalSensorSeed,
              deriveSeed(spec.baseSeed, t.chip, t.repetition,
                         SeedStream::ThermalSensor));
    EXPECT_EQ(t.lifetime.minDarkFraction, 0.5);
  }
  // Same chip, different repetition: all three streams decorrelate.
  EXPECT_NE(tasks[0].lifetime.workloadSeed, tasks[1].lifetime.workloadSeed);
  EXPECT_NE(tasks[0].lifetime.sensorSeed, tasks[1].lifetime.sensorSeed);
  EXPECT_NE(tasks[0].system.epoch.thermalSensorSeed,
            tasks[1].system.epoch.thermalSensorSeed);
  // Streams never collide with each other for one task.
  EXPECT_NE(tasks[0].lifetime.workloadSeed, tasks[0].lifetime.sensorSeed);
}

TEST(ExperimentSpecTest, HashIsStableAcrossCalls) {
  const ExperimentSpec spec = tinySpec();
  const std::uint64_t h = specHash(spec);
  EXPECT_EQ(h, specHash(spec));
  EXPECT_EQ(specSignature(spec), specSignature(tinySpec()));
}

/// Deterministic value mutation for the signature property sweep: flip
/// 0/1 (covers booleans without turning "1" into a still-truthy "2"),
/// bump any other numeric by one, suffix strings.
std::string mutateValue(const std::string& value) {
  if (value == "0") return "1";
  if (value == "1") return "0";
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (!value.empty() && end == value.c_str() + value.size()) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", parsed + 1.0);
    return buf;
  }
  return value + "X";
}

// Property sweep over the generic field walker (experiment.hpp): instead
// of hand-enumerating fields (which silently rots when SystemConfig or
// LifetimeConfig grows), mutate the value of EVERY line of the canonical
// wire encoding and require the signature to change — except spec.name,
// which is a label, never a key.  Mutations the decoder rejects (count
// lines that break the line structure, a materialized fixedMix) cannot
// produce a colliding spec by construction and are skipped.
TEST(ExperimentSpecTest, EveryWalkedFieldAffectsTheSignature) {
  ExperimentSpec spec = tinySpec();
  spec.repetitions = 2;
  spec.darkFractions = {0.25, 0.5};
  spec.policies[1].params["wearGamma"] = 2.5;

  const std::string base = specSignature(spec);
  const std::string encoded = encodeSpec(spec);

  std::vector<std::string> lines;
  {
    std::istringstream in(encoded);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  // The walk must really cover the config space, not a token subset.
  ASSERT_GT(lines.size(), 40u);

  int checked = 0;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const std::size_t eq = lines[k].find('=');
    ASSERT_NE(eq, std::string::npos) << "not key=value: " << lines[k];
    const std::string key = lines[k].substr(0, eq);
    std::vector<std::string> mutated = lines;
    mutated[k] = key + '=' + mutateValue(lines[k].substr(eq + 1));
    ASSERT_NE(mutated[k], lines[k]);

    std::string payload;
    for (const std::string& l : mutated) payload += l + '\n';

    ExperimentSpec changed;
    try {
      changed = decodeSpec(payload);
    } catch (const Error&) {
      continue;
    }
    ++checked;
    if (key == "spec.name") {
      EXPECT_EQ(specSignature(changed), base)
          << key << " is a label and must not be hashed";
    } else {
      EXPECT_NE(specSignature(changed), base)
          << "mutating " << key << " did not change the signature";
    }
  }
  EXPECT_GT(checked, 30);  // most mutations must be representable
}

// The sweep above cannot grow or shrink lists (a count mutation breaks
// the line structure), so pin the list-shape axes directly.
TEST(ExperimentSpecTest, ListShapesAreHashed) {
  const std::uint64_t base = specHash(tinySpec());

  ExperimentSpec s = tinySpec();
  s.chips.push_back(2);
  EXPECT_NE(specHash(s), base);

  s = tinySpec();
  s.darkFractions.push_back(0.25);
  EXPECT_NE(specHash(s), base);

  s = tinySpec();
  s.policies.push_back({"Random", {}});
  EXPECT_NE(specHash(s), base);

  s = tinySpec();
  s.policies[1].params["wearGamma"] = 5.0;
  EXPECT_NE(specHash(s), base);
}

TEST(ExperimentSpecTest, NameAndDerivedSeedsAreNotHashed) {
  ExperimentSpec s = tinySpec();
  s.name = "renamed";
  // The label names the cache file but never the key.
  EXPECT_EQ(specHash(s), specHash(tinySpec()));

  // Seed fields the expansion overwrites are excluded from the signature.
  s = tinySpec();
  s.lifetime.workloadSeed = 123456;
  s.lifetime.sensorSeed = 654321;
  s.system.epoch.thermalSensorSeed = 777;
  EXPECT_EQ(specHash(s), specHash(tinySpec()));
}

// The reference twins are per-model config, not spec: they give the
// same bytes, so the hash, the signature and the wire form ignore them,
// and a decoded spec always runs the fast paths.
TEST(ExperimentSpecTest, ReferenceFieldsAreNotPartOfTheSpec) {
  const ExperimentSpec base = tinySpec();
  for (int lane = 1; lane < 4; ++lane) {
    const ExperimentSpec s =
        withReferences(base, (lane & 1) != 0, (lane & 2) != 0);
    EXPECT_EQ(specHash(s), specHash(base));
    EXPECT_EQ(specSignature(s), specSignature(base));
    EXPECT_EQ(encodeSpec(s), encodeSpec(base));
    const ExperimentSpec decoded = decodeSpec(encodeSpec(s));
    EXPECT_EQ(decoded.system.thermal.solver, RcSolver::Mode::Banded);
    EXPECT_FALSE(decoded.system.agingTable.scalarReference);
  }
}

TEST(ExperimentEngineTest, ParallelRunsAreBitIdenticalToSerial) {
  const ExperimentSpec spec = tinySpec();
  const SweepTable serial =
      ExperimentEngine(noCache(1)).run(spec);
  ASSERT_EQ(serial.runs.size(), 4u);

  for (const int workers : {2, 8}) {
    const SweepTable parallel =
        ExperimentEngine(noCache(workers)).run(spec);
    expectIdentical(serial, parallel);
  }
}

TEST(ExperimentEngineTest, CacheHitPerformsZeroEpochSimulatorCalls) {
  // The engine env knobs must not leak into this test.
  ::unsetenv("HAYAT_NO_CACHE");
  ::unsetenv("HAYAT_CACHE_DIR");

  const std::string dir = testing::TempDir() + "hayat_engine_cache_test";
  std::filesystem::remove_all(dir);

  const ExperimentSpec spec = tinySpec();
  EngineConfig config;
  config.workers = 1;
  config.cacheDir = dir;
  const ExperimentEngine engine(config);
  ASSERT_TRUE(engine.cacheEnabled());

  const long before = epochSimulatorRunCount();
  const SweepTable computed = engine.run(spec);
  const long afterMiss = epochSimulatorRunCount();
  EXPECT_GT(afterMiss, before);  // a miss simulates
  EXPECT_TRUE(std::filesystem::exists(cachePath(dir, spec)));

  const SweepTable cached = engine.run(spec);
  EXPECT_EQ(epochSimulatorRunCount(), afterMiss);  // a hit does not
  expectIdentical(computed, cached);

  std::filesystem::remove_all(dir);
}

TEST(ExperimentEngineTest, CacheRoundTripsEveryColumn) {
  const std::string dir = testing::TempDir() + "hayat_engine_roundtrip_test";
  std::filesystem::remove_all(dir);

  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;  // one epoch is enough for a round-trip
  const SweepTable computed =
      ExperimentEngine(noCache(1)).run(spec);
  ASSERT_TRUE(storeCachedTable(dir, spec, computed));

  const auto loaded = loadCachedTable(dir, spec);
  ASSERT_TRUE(loaded.has_value());
  expectIdentical(computed, *loaded);

  // A different spec must not read this entry (hash-distinct file).
  ExperimentSpec other = spec;
  other.baseSeed += 1;
  EXPECT_FALSE(loadCachedTable(dir, other).has_value());

  std::filesystem::remove_all(dir);
}

namespace {

/// Stores tinySpec's table in a fresh cache dir and returns (dir, path).
std::pair<std::string, std::string> storedCacheEntry(
    const ExperimentSpec& spec, const char* dirName) {
  const std::string dir = testing::TempDir() + dirName;
  std::filesystem::remove_all(dir);
  const SweepTable computed = ExperimentEngine(noCache(1)).run(spec);
  EXPECT_TRUE(storeCachedTable(dir, spec, computed));
  return {dir, cachePath(dir, spec)};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void overwrite(const std::string& path, const std::string& contents) {
  std::ofstream(path, std::ios::trunc) << contents;
}

}  // namespace

// Format-version churn must never serve stale bytes: an entry stamped by
// a previous cache format is a miss, and the orphaned file (nothing will
// ever read it again) is deleted on the way out.
TEST(ResultCacheTest, StaleFormatVersionIsAMissThatDeletesTheFile) {
  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;
  const auto [dir, path] = storedCacheEntry(spec, "hayat_cache_stale_test");

  std::string contents = slurp(path);
  const std::string stamp =
      "# hayat-result-cache v" + std::to_string(kCacheFormatVersion);
  ASSERT_EQ(contents.compare(0, stamp.size(), stamp), 0)
      << "entry is not stamped with kCacheFormatVersion";
  contents.replace(0, stamp.size(),
                   "# hayat-result-cache v" +
                       std::to_string(kCacheFormatVersion - 1));
  overwrite(path, contents);

  EXPECT_FALSE(loadCachedTable(dir, spec).has_value());
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, CorruptedEntryIsAMissThatDeletesTheFile) {
  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;
  const auto [dir, path] =
      storedCacheEntry(spec, "hayat_cache_corrupt_test");

  // Torn write: the final record is chopped mid-line.
  const std::string contents = slurp(path);
  overwrite(path, contents.substr(0, contents.size() - 10));

  EXPECT_FALSE(loadCachedTable(dir, spec).has_value());
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, EmbeddedSignatureMismatchIsAMissThatDeletesTheFile) {
  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;
  const auto [dir, path] =
      storedCacheEntry(spec, "hayat_cache_collision_test");

  // Simulate a hash collision / signature drift: same file name, but the
  // embedded signature no longer matches what the spec serializes to.
  std::string contents = slurp(path);
  const std::string seedLine = "# baseSeed=" + std::to_string(spec.baseSeed);
  const std::size_t at = contents.find(seedLine);
  ASSERT_NE(at, std::string::npos);
  contents.replace(at, seedLine.size(),
                   "# baseSeed=" + std::to_string(spec.baseSeed + 1));
  overwrite(path, contents);

  EXPECT_FALSE(loadCachedTable(dir, spec).has_value());
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------- eviction

TEST(CacheEvictionTest, EntryExactlyAtMaxBytesSurvives) {
  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;
  const auto [dir, path] =
      storedCacheEntry(spec, "hayat_evict_boundary_test");
  const std::uint64_t size = std::filesystem::file_size(path);

  // The size bound is "directory exceeds maxBytes", so an entry landing
  // exactly on the limit is kept...
  const CacheEvictionStats at = evictResultCache(dir, size, -1.0);
  EXPECT_EQ(at.scannedFiles, 1u);
  EXPECT_EQ(at.scannedBytes, size);
  EXPECT_EQ(at.evictedBySize, 0u);
  EXPECT_TRUE(std::filesystem::exists(path));

  // ...and one byte less evicts it even though it is the newest entry.
  const CacheEvictionStats under = evictResultCache(dir, size - 1, -1.0);
  EXPECT_EQ(under.evictedBySize, 1u);
  EXPECT_EQ(under.evictedBytes, size);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(CacheEvictionTest, ZeroByteAndCorruptEntriesDoNotDerailTheScan) {
  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;
  const auto [dir, path] = storedCacheEntry(spec, "hayat_evict_junk_test");
  const std::uint64_t size = std::filesystem::file_size(path);

  // A torn store (zero bytes) and a garbage blob, both older than the
  // valid entry.
  const std::string zero = dir + "/torn-0000000000000000.csv";
  const std::string junk = dir + "/junk-ffffffffffffffff.csv";
  overwrite(zero, "");
  overwrite(junk, "not a cache entry\n");  // 18 bytes
  const auto old =
      std::filesystem::last_write_time(path) - std::chrono::hours(1);
  std::filesystem::last_write_time(zero, old);
  std::filesystem::last_write_time(junk, old);

  // Fitting the directory to the valid entry's size drops the two junk
  // files oldest-first; the zero-byte one frees nothing but must still
  // be removed rather than stall the pass.
  const CacheEvictionStats stats = evictResultCache(dir, size, -1.0);
  EXPECT_EQ(stats.scannedFiles, 3u);
  EXPECT_EQ(stats.evictedBySize, 2u);
  EXPECT_EQ(stats.evictedBytes, 18u);
  EXPECT_FALSE(std::filesystem::exists(zero));
  EXPECT_FALSE(std::filesystem::exists(junk));
  EXPECT_TRUE(loadCachedTable(dir, spec).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CacheEvictionTest, MaxAgeZeroFlushesEverythingAndNegativeDisables) {
  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;
  const auto [dir, path] = storedCacheEntry(spec, "hayat_evict_flush_test");

  // Negative max age: the age pass is off entirely.
  const CacheEvictionStats off = evictResultCache(dir, 0, -1.0);
  EXPECT_EQ(off.evictedByAge, 0u);
  EXPECT_TRUE(std::filesystem::exists(path));

  // Zero max age: flush-all, including an entry written this clock tick
  // (an age-> limit comparison would flake on filesystems with coarse
  // mtime granularity, which is why zero is special-cased).
  const CacheEvictionStats flush = evictResultCache(dir, 0, 0.0);
  EXPECT_EQ(flush.evictedByAge, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));

  // A missing directory is a no-op, not an error.
  std::filesystem::remove_all(dir);
  const CacheEvictionStats gone = evictResultCache(dir, 0, 0.0);
  EXPECT_EQ(gone.scannedFiles, 0u);
}

TEST(ExperimentEngineTest, CacheMaxAgeZeroConfigFlushesAfterEveryRun) {
  ::unsetenv("HAYAT_NO_CACHE");
  ::unsetenv("HAYAT_CACHE_DIR");
  const std::string dir = testing::TempDir() + "hayat_engine_flush_test";
  std::filesystem::remove_all(dir);

  const ExperimentSpec spec = tinySpec();
  EngineConfig config;
  config.workers = 1;
  config.cacheDir = dir;
  config.cacheMaxAgeSeconds = 0.0;  // --cache-max-age=0: keep nothing
  const SweepTable table = ExperimentEngine(config).run(spec);
  EXPECT_EQ(table.runs.size(), 4u);

  // The entry was stored, then the post-run eviction pass flushed it.
  EXPECT_FALSE(std::filesystem::exists(cachePath(dir, spec)));
  std::filesystem::remove_all(dir);
}

TEST(CliCacheFlags, MaxBytesWithAUnitSuffixExitsBeforeTouchingTheCache) {
  // ctest runs from build/tests; the CLI binary lives in build/tools.
  const std::filesystem::path binary =
      std::filesystem::absolute("../tools/hayat");
  if (!std::filesystem::exists(binary))
    GTEST_SKIP() << "hayat CLI binary not found at " << binary;
  ::unsetenv("HAYAT_NO_CACHE");
  const std::string dir = testing::TempDir() + "hayat_engine_suffix_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string entry = dir + "/earlier-spec.csv";
  const std::string entryBytes(100, 'x');
  std::ofstream(entry, std::ios::binary) << entryBytes;
  const std::string errPath = dir + ".stderr";

  // Read leniently as 10 bytes, "10G" would evict every entry after the
  // run, the one it just stored included.
  const std::string command =
      "HAYAT_CACHE_DIR='" + dir + "' '" + binary.string() +
      "' sweep --chips 1 --years 0.25 --cache-max-bytes 10G > /dev/null 2> '" +
      errPath + "'";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::ifstream err(errPath);
  std::ostringstream message;
  message << err.rdbuf();
  EXPECT_NE(message.str().find("--cache-max-bytes expects a whole number"),
            std::string::npos)
      << message.str();

  // The cache directory is exactly as it was: nothing stored or evicted.
  std::vector<std::string> names;
  for (const auto& item : std::filesystem::directory_iterator(dir))
    names.push_back(item.path().filename().string());
  EXPECT_EQ(names, std::vector<std::string>{"earlier-spec.csv"});
  std::ifstream kept(entry, std::ios::binary);
  std::ostringstream keptBytes;
  keptBytes << kept.rdbuf();
  EXPECT_EQ(keptBytes.str(), entryBytes);
  std::filesystem::remove_all(dir);
  std::filesystem::remove(errPath);
}

TEST(SweepTableTest, SelectAndAggregateRatio) {
  const ExperimentSpec spec = tinySpec();
  const SweepTable table =
      ExperimentEngine(noCache(0)).run(spec);

  const auto vaa = table.select("VAA", 0.5);
  const auto hayat = table.select("Hayat", 0.5);
  ASSERT_EQ(vaa.size(), 2u);
  ASSERT_EQ(hayat.size(), 2u);
  EXPECT_EQ(vaa[0]->chip, 0);
  EXPECT_EQ(vaa[1]->chip, 1);
  EXPECT_TRUE(table.select("VAA", 0.25).empty());

  const double ratio = table.aggregateRatio(
      0.5,
      [](const RunResult& r) { return r.lifetime.epochs.back().averageFmax; });
  EXPECT_GT(ratio, 0.0);

  EXPECT_THROW(
      table.aggregateRatio(
          0.5, [](const RunResult&) { return 0.0; }),
      Error);
}

TEST(ExperimentEngineTest, UnknownPolicyParameterThrows) {
  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;
  spec.chips = {0};
  spec.policies = {{"Hayat", {{"notAKnob", 1.0}}}};
  const ExperimentEngine engine(noCache(1));
  EXPECT_THROW(engine.run(spec), Error);
}

// Spatial candidate pruning is gone: its radius param is now an unknown
// Hayat parameter, rejected like any other.
TEST(ExperimentEngineTest, RetiredPruneRadiusParamIsRejected) {
  // The retired key, built from pieces: nothing in the code base names it.
  const std::string retired = std::string("prune") + "Radius";
  ExperimentSpec spec = tinySpec();
  spec.lifetime.horizon = 0.25;
  spec.chips = {0};
  spec.policies = {{"Hayat", {{retired, 4.0}}}};
  try {
    (void)ExperimentEngine(noCache(1)).run(spec);
    ADD_FAILURE() << "Hayat accepted the retired param";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no parameter \"" + retired + "\""),
              std::string::npos)
        << e.what();
  }
}

TEST(ExperimentEngineTest, SparseAndDenseSolverSweepsAreByteIdentical) {
  // The A/B contract of the sparse migration: a sweep run on the banded
  // kernels serializes byte-for-byte like one run on the dense
  // reference LU, including the cache records.
  const ExperimentSpec spec = tinySpec();
  const SweepTable banded = ExperimentEngine(noCache(1)).run(spec);
  const SweepTable dense =
      ExperimentEngine(noCache(1)).run(withReferences(spec, true, false));

  expectIdentical(banded, dense);
  ASSERT_EQ(banded.runs.size(), dense.runs.size());
  for (std::size_t i = 0; i < banded.runs.size(); ++i) {
    std::ostringstream a;
    std::ostringstream b;
    writeRunResult(a, banded.runs[i]);
    writeRunResult(b, dense.runs[i]);
    EXPECT_EQ(a.str(), b.str()) << "run " << i;
  }
}

TEST(ExperimentEngineTest, ScalarAndBatchedAgingSweepsAreByteIdentical) {
  // The A/B contract of the batched aging/policy fast path (DESIGN.md
  // §3.10): every registered policy, run on either thermal backend,
  // serializes byte-for-byte the same under the scalar bisection
  // reference and the batched cursor-warmed default.  Exhaustive gets its
  // own spec with a dark fraction that keeps the enumeration tiny (budget
  // 2 on a 4x4 chip).
  ExperimentSpec spec = tinySpec();
  spec.chips = {0};
  spec.policies = {
      {"Hayat", {}}, {"VAA", {}}, {"Random", {}}, {"CoolestFirst", {}}};
  ExperimentSpec exhaustiveSpec = tinySpec();
  exhaustiveSpec.chips = {0};
  exhaustiveSpec.darkFractions = {0.875};
  exhaustiveSpec.policies = {{"Exhaustive", {}}};

  struct Lane {
    bool dense;
    bool scalar;
  };
  constexpr Lane kLanes[] = {
      {false, false}, {false, true}, {true, false}, {true, true}};
  std::vector<SweepTable> tables;
  std::vector<SweepTable> exhaustiveTables;
  for (const Lane& lane : kLanes) {
    tables.push_back(ExperimentEngine(noCache(1)).run(
        withReferences(spec, lane.dense, lane.scalar)));
    exhaustiveTables.push_back(ExperimentEngine(noCache(1)).run(
        withReferences(exhaustiveSpec, lane.dense, lane.scalar)));
  }

  const auto expectSameBytes = [](const SweepTable& a, const SweepTable& b,
                                  const char* what) {
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
      std::ostringstream sa;
      std::ostringstream sb;
      writeRunResult(sa, a.runs[i]);
      writeRunResult(sb, b.runs[i]);
      EXPECT_EQ(sa.str(), sb.str()) << what << " run " << i;
    }
  };
  for (std::size_t k = 1; k < std::size(kLanes); ++k) {
    expectIdentical(tables[0], tables[k]);
    expectIdentical(exhaustiveTables[0], exhaustiveTables[k]);
    expectSameBytes(tables[0], tables[k], "policies");
    expectSameBytes(exhaustiveTables[0], exhaustiveTables[k], "exhaustive");
  }
}

}  // namespace
}  // namespace hayat::engine
