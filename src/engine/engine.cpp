#include "engine/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "engine/builtin_policies.hpp"
#include "engine/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace hayat::engine {

namespace {

telemetry::Counter& runsTotal =
    telemetry::Registry::global().counter("hayat_engine_runs_total");
telemetry::Counter& tasksTotal =
    telemetry::Registry::global().counter("hayat_engine_tasks_total");

/// Runs every task of `spec` on the lanes of a scheduler built for this
/// call — one lane per endpoint slot, each degrading to its own thread
/// when its worker cannot be reached.  The caller owns the result cache,
/// so the scheduler's is off.  A task that fails even locally fails the
/// run, and its error is rethrown here.
SweepTable runOnLanes(const ExperimentSpec& spec, const std::string& dispatch) {
  SchedulerConfig config;
  config.dispatch = dispatch;
  config.cache = false;
  SweepScheduler scheduler(config);
  const std::shared_ptr<SpecRun> run = scheduler.attach(spec, 0, spec.name);
  for (int i = 0; i < run->taskCount(); ++i)
    while (!run->waitRow(i, 1000))
      if (run->failed()) throw Error(run->error());
  return run->table();
}

/// Warm-cache push: dials every tcp endpoint once and sends the spec,
/// the on-disk cache entry for it and Shutdown, so a remote fleet's
/// caches hold every entry this coordinator has (fork/exec workers share
/// its disk).  Best-effort: unreadable entries and unreachable workers
/// are skipped.
void pushCacheEntry(const std::vector<WorkerEndpoint>& endpoints,
                    const std::string& dir, const ExperimentSpec& spec) {
  if (std::none_of(endpoints.begin(), endpoints.end(), [](const auto& e) {
        return e.kind == WorkerEndpoint::Kind::Tcp;
      }))
    return;
  std::ifstream in(cachePath(dir, spec), std::ios::binary);
  if (!in) return;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string specPayload = encodeSpec(spec);
  const std::string push =
      encodeCachePush(spec.name, specHash(spec), bytes.str());
  ignoreSigpipe();
  int sent = 0;
  for (const WorkerEndpoint& endpoint : endpoints) {
    if (endpoint.kind != WorkerEndpoint::Kind::Tcp) continue;
    pid_t pid = -1;
    const int fd = spawnWorker(endpoint, -1, pid);
    if (fd < 0) continue;
    if (writeMessage(fd, MsgType::Spec, specPayload) &&
        writeMessage(fd, MsgType::CachePush, push) &&
        writeMessage(fd, MsgType::Shutdown, ""))
      ++sent;
    ::close(fd);
  }
  if (sent > 0)
    std::fprintf(stderr, "[engine] %s: pushed cache entry to %d worker%s\n",
                 spec.name.c_str(), sent, sent == 1 ? "" : "s");
}

/// Runs one lockstep group: builds a System and policy per task, advances
/// their LifetimeRuns together until every one reaches its horizon, and
/// writes each result to `out` (one slot per task, in order).
void runGroup(std::span<const RunTask> group, std::uint64_t populationSeed,
              RunResult* out) {
  const telemetry::Span runSpan("lifetime.run");
  // Sized once: each LifetimeRun holds references into its System.
  std::vector<std::optional<System>> systems(group.size());
  std::vector<std::unique_ptr<MappingPolicy>> policies;
  std::vector<std::unique_ptr<LifetimeRun>> runs;
  std::vector<LifetimeRun*> lanes;
  for (std::size_t k = 0; k < group.size(); ++k) {
    const RunTask& task = group[k];
    systems[k].emplace(System::create(task.system, populationSeed, task.chip));
    policies.push_back(PolicyRegistry::global().make(task.policy));
    runs.push_back(std::make_unique<LifetimeRun>(task.lifetime, *systems[k],
                                                 *policies.back()));
    lanes.push_back(runs.back().get());
  }
  while (std::any_of(runs.begin(), runs.end(),
                     [](const auto& run) { return !run->done(); }))
    advanceInLockstep(lanes);
  for (std::size_t k = 0; k < group.size(); ++k) {
    const RunTask& task = group[k];
    RunResult& result = out[k];
    result.chip = task.chip;
    result.repetition = task.repetition;
    result.darkFraction = task.darkFraction;
    result.policy = task.policy.label();
    result.ambient = task.system.thermal.ambient;
    result.lifetime = runs[k]->finish();
  }
}

}  // namespace

double RunResult::throughputRatio() const {
  if (lifetime.epochs.empty()) return 1.0;
  double acc = 0.0;
  for (const EpochRecord& e : lifetime.epochs) acc += e.throughputRatio;
  return acc / static_cast<double>(lifetime.epochs.size());
}

std::vector<const RunResult*> SweepTable::select(const std::string& policy,
                                                 double darkFraction) const {
  std::vector<const RunResult*> out;
  for (const RunResult& r : runs)
    if (r.policy == policy && std::abs(r.darkFraction - darkFraction) < 1e-9)
      out.push_back(&r);
  return out;
}

double SweepTable::aggregateRatio(double darkFraction,
                                  double (*metric)(const RunResult&),
                                  const std::string& numerator,
                                  const std::string& denominator) const {
  double num = 0.0, den = 0.0;
  for (const RunResult& r : runs) {
    if (std::abs(r.darkFraction - darkFraction) > 1e-9) continue;
    if (r.policy == numerator)
      num += metric(r);
    else if (r.policy == denominator)
      den += metric(r);
  }
  HAYAT_REQUIRE(den != 0.0,
                "denominator aggregate metric is zero; cannot normalize");
  return num / den;
}

ExperimentEngine::ExperimentEngine(EngineConfig config)
    : config_(std::move(config)) {
  registerBuiltinPolicies();
  // Benches/examples opt into telemetry via the environment; the CLI
  // configures explicitly before constructing an engine, and that call
  // wins (configureFromEnv is a no-op once configured).
  telemetry::configureFromEnv("engine");
}

int ExperimentEngine::workers() const {
  return config_.workers > 0 ? config_.workers : defaultWorkerCount();
}

bool ExperimentEngine::cacheEnabled() const {
  return resolveCacheEnabled(config_.cache);
}

std::string ExperimentEngine::cacheDir() const {
  return resolveCacheDir(config_.cacheDir);
}

std::string ExperimentEngine::dispatchSpec() const {
  if (!config_.dispatch.empty()) return config_.dispatch;
  if (const char* env = std::getenv("HAYAT_DISPATCH"))
    if (*env) return env;
  return "";
}

std::vector<RunTask> ExperimentEngine::expand(const ExperimentSpec& spec) {
  HAYAT_REQUIRE(!spec.chips.empty(), "spec has no chips");
  HAYAT_REQUIRE(!spec.darkFractions.empty(), "spec has no dark fractions");
  HAYAT_REQUIRE(!spec.policies.empty(), "spec has no policies");
  HAYAT_REQUIRE(spec.repetitions >= 1, "spec needs >= 1 repetition");

  std::vector<RunTask> tasks;
  tasks.reserve(static_cast<std::size_t>(spec.taskCount()));
  for (const int chip : spec.chips) {
    for (const double dark : spec.darkFractions) {
      for (const PolicySpec& policy : spec.policies) {
        for (int rep = 0; rep < spec.repetitions; ++rep) {
          RunTask task;
          task.index = static_cast<int>(tasks.size());
          task.chip = chip;
          task.repetition = rep;
          task.darkFraction = dark;
          task.policy = policy;
          task.system = spec.system;
          task.system.epoch.thermalSensorSeed = deriveSeed(
              spec.baseSeed, chip, rep, SeedStream::ThermalSensor);
          task.lifetime = spec.lifetime;
          task.lifetime.minDarkFraction = dark;
          task.lifetime.workloadSeed =
              deriveSeed(spec.baseSeed, chip, rep, SeedStream::Workload);
          task.lifetime.sensorSeed =
              deriveSeed(spec.baseSeed, chip, rep, SeedStream::HealthSensor);
          task.lifetime.failure.seed =
              deriveSeed(spec.baseSeed, chip, rep, SeedStream::Failure);
          tasks.push_back(std::move(task));
        }
      }
    }
  }
  return tasks;
}

RunResult ExperimentEngine::runTask(const RunTask& task,
                                    std::uint64_t populationSeed) {
  return std::move(runTasks({&task, 1}, populationSeed, 1, 1).front());
}

std::vector<RunResult> ExperimentEngine::runTasks(
    std::span<const RunTask> tasks, std::uint64_t populationSeed,
    int workers, int width) {
  registerBuiltinPolicies();
  const std::size_t w = static_cast<std::size_t>(std::max(1, width));
  const int groups = static_cast<int>((tasks.size() + w - 1) / w);
  std::vector<RunResult> results(tasks.size());
  runParallel(groups, workers, [&](int g) {
    const std::size_t first = static_cast<std::size_t>(g) * w;
    runGroup(tasks.subspan(first, std::min(w, tasks.size() - first)),
             populationSeed, results.data() + first);
  });
  return results;
}

int ExperimentEngine::laneWidth(int tasks, int workers) {
  for (const int width : {4, 2})
    if (tasks >= width * std::max(1, workers)) return width;
  return 1;
}

RunResult ExperimentEngine::runWithPolicy(System& system,
                                          const LifetimeConfig& config,
                                          MappingPolicy& policy, int chip,
                                          int repetition) {
  RunResult result;
  result.chip = chip;
  result.repetition = repetition;
  result.darkFraction = config.minDarkFraction;
  result.policy = policy.name();
  result.ambient = system.config().thermal.ambient;
  result.lifetime = LifetimeSimulator(config).run(system, policy);
  return result;
}

SweepTable ExperimentEngine::run(const ExperimentSpec& spec) const {
  const telemetry::Span runSpan("engine.run");
  if (telemetry::enabled()) runsTotal.add();

  // Endpoint syntax errors are loud, and deliberately precede the cache
  // check — a typo'd topology must not be masked by a cache hit.
  const std::string dispatch = dispatchSpec();
  std::vector<WorkerEndpoint> endpoints;
  if (!dispatch.empty()) endpoints = parseWorkerSpec(dispatch);

  // A fixed mix is not canonically hashed (experiment.cpp), so such specs
  // always recompute.
  const bool cacheable = cacheEnabled() && !spec.lifetime.fixedMix.has_value();
  if (cacheable) {
    if (auto cached = loadCachedTable(cacheDir(), spec)) {
      std::fprintf(stderr, "[engine] %s: loaded %zu runs from %s\n",
                   spec.name.c_str(), cached->runs.size(),
                   cachePath(cacheDir(), spec).c_str());
      // The local hit costs the remote fleet nothing, so spend a
      // connection warming each tcp worker's cache with it.
      pushCacheEntry(endpoints, cacheDir(), spec);
      return *std::move(cached);
    }
  }

  const std::vector<RunTask> tasks = expand(spec);
  if (telemetry::enabled()) tasksTotal.add(tasks.size());
  // A fixed mix has no wire form, so such specs always run in-process.
  const bool onLanes = !endpoints.empty() && !spec.lifetime.fixedMix;
  SweepTable table;
  if (onLanes) {
    table = runOnLanes(spec, dispatch);
  } else {
    // Groups are consecutive tasks: policy is the innermost loop of
    // expand, so a pair holds every policy of one chip and dark fraction
    // and the groups carry equal work.
    const int threads = workers();
    table.runs =
        runTasks(tasks, spec.populationSeed, threads,
                 laneWidth(static_cast<int>(tasks.size()), threads));
  }

  if (cacheable) {
    storeCachedTable(cacheDir(), spec, table);
    // The workers that just computed the table get its cache entry back,
    // so a coordinator restart against the same fleet starts warm even
    // if this host's cache directory is lost.
    if (onLanes) pushCacheEntry(endpoints, cacheDir(), spec);
    if (config_.cacheMaxBytes > 0 || config_.cacheMaxAgeSeconds >= 0.0) {
      const CacheEvictionStats ev = evictResultCache(
          cacheDir(), config_.cacheMaxBytes, config_.cacheMaxAgeSeconds);
      if (ev.evictedByAge + ev.evictedBySize > 0) {
        std::fprintf(stderr,
                     "[engine] cache eviction: dropped %" PRIu64
                     " entries (%" PRIu64 " by age, %" PRIu64
                     " by size), %" PRIu64 " bytes\n",
                     ev.evictedByAge + ev.evictedBySize, ev.evictedByAge,
                     ev.evictedBySize, ev.evictedBytes);
      }
    }
  }
  return table;
}

}  // namespace hayat::engine
