// The engine workloads: paper_sweep, large_chip and mttf_distribution.
//
// A job is one ExperimentSpec — a chip set x dark fractions x policies
// sweep — run to completion.  Job k of seed s draws its population and
// base seeds from mixSeed(s, k, .), so no two jobs of a run share a spec
// and the trajectory memo is never warmed by an earlier repetition.
//
// Untraced runs call ExperimentEngine::run with the result cache off.
// Traced runs execute the same tasks through the engine's public pieces
// instead — expand, System::create, and runWithPolicy with a timing
// decorator around the policy — so spans bracket each layer's calls;
// the canonical bytes must come out identical either way.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/system.hpp"
#include "engine/builtin_policies.hpp"
#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "failure/monte_carlo.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using hayat::MappingPolicy;
using hayat::System;
using hayat::engine::ExperimentEngine;
using hayat::engine::ExperimentSpec;
using hayat::engine::RunResult;
using hayat::engine::RunTask;
using hayat::engine::SweepTable;

struct BatchShape {
  const char* name;
  int grid;                        ///< cores per chip edge
  std::vector<const char*> policies;
  std::vector<double> dark;        ///< minimum dark fractions
  int chips;                       ///< population chips per job
  double horizon;                  ///< years
  double window;                   ///< transient window [s]; 0: default
  int samples;                     ///< Monte Carlo samples; 0: point MTTF
};

const std::vector<BatchShape>& shapes() {
  static const std::vector<BatchShape> all = {
      // The paper's Figs. 7-10 sweep shape.
      {"paper_sweep", 8, {"VAA", "Hayat"}, {0.25, 0.5}, 2, 10.0, 0.0, 0},
      // The largest placement problem, at bench_kernels' 0.3 s window.
      // Eight tasks on four threads, so the pool can even out a slow one.
      {"large_chip", 16, {"Hayat"}, {0.5}, 8, 2.0, 0.3, 0},
      // Distribution mode: the failure Monte Carlo dominates.
      {"mttf_distribution", 4, {"VAA", "Hayat"}, {0.25, 0.5}, 2, 10.0, 0.0,
       4096},
  };
  return all;
}

const BatchShape& shapeFor(const std::string& name) {
  for (const BatchShape& s : shapes())
    if (name == s.name) return s;
  throw std::runtime_error("unknown batch workload " + name);
}

ExperimentSpec jobSpec(const BatchShape& shape, std::uint64_t seed, int job) {
  ExperimentSpec spec;
  spec.name = shape.name;
  spec.system.population.coreGrid = hayat::GridShape(shape.grid, shape.grid);
  if (shape.window > 0.0) spec.system.epoch.window = shape.window;
  spec.lifetime.horizon = shape.horizon;
  spec.lifetime.epochLength = 0.25;
  spec.lifetime.failure.samples = shape.samples;
  spec.policies.clear();
  for (const char* p : shape.policies) spec.policies.push_back({p, {}});
  spec.chips.clear();
  for (int c = 0; c < shape.chips; ++c) spec.chips.push_back(c);
  spec.darkFractions = shape.dark;
  spec.populationSeed = mixSeed(seed, static_cast<std::uint64_t>(job), 1);
  spec.baseSeed = mixSeed(seed, static_cast<std::uint64_t>(job), 2);
  return spec;
}

/// The canonical bytes of a batch job: every run's record, every
/// distribution export, and the simulated counters.
std::string canonicalBytes(const SweepTable& table) {
  std::ostringstream out;
  long dtm = 0, migrations = 0, throttles = 0, throttled = 0, steps = 0,
       epochs = 0;
  for (const RunResult& run : table.runs) {
    hayat::engine::writeRunResult(out, run);
    if (run.lifetime.distribution)
      hayat::writeDistribution(out, *run.lifetime.distribution);
    for (const hayat::EpochRecord& e : run.lifetime.epochs) {
      dtm += e.dtmEvents;
      migrations += e.migrations;
      throttles += e.throttles;
      throttled += e.throttledSteps;
      steps += e.totalSteps;
      ++epochs;
    }
  }
  out << "counters dtm=" << dtm << " migrations=" << migrations
      << " throttles=" << throttles << " throttled_steps=" << throttled
      << " steps=" << steps << " epochs=" << epochs << "\n";
  return out.str();
}

/// Structural checks every job must pass, pinned or not.  Returns "" or
/// the first problem found.
std::string checkTable(const ExperimentEngine& engine,
                       const ExperimentSpec& spec, const SweepTable& table) {
  const std::vector<RunTask> tasks = engine.expand(spec);
  if (table.runs.size() != tasks.size()) return "wrong run count";
  const auto epochs = static_cast<std::size_t>(
      std::llround(spec.lifetime.horizon / spec.lifetime.epochLength));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const RunResult& run = table.runs[i];
    const hayat::LifetimeResult& life = run.lifetime;
    if (run.chip != tasks[i].chip || run.policy != tasks[i].policy.label() ||
        run.darkFraction != tasks[i].darkFraction)
      return "run " + std::to_string(i) + " has the wrong identity";
    if (life.epochs.size() != epochs)
      return "run " + std::to_string(i) + " has the wrong epoch count";
    for (const hayat::EpochRecord& e : life.epochs)
      if (!(e.averageFmax > 0.0) || !std::isfinite(e.chipPeak))
        return "run " + std::to_string(i) + " has a non-physical epoch";
    const int samples = spec.lifetime.failure.samples;
    if (samples > 0 ? !life.distribution ||
                          life.distribution->systemLifetimes.size() !=
                              static_cast<std::size_t>(samples)
                    : life.distribution.has_value())
      return "run " + std::to_string(i) + " has the wrong distribution";
  }
  return "";
}

/// Times every policy decision of one task as a span.
class TimedPolicy final : public MappingPolicy {
 public:
  TimedPolicy(std::unique_ptr<MappingPolicy> inner, std::string label,
              Tracer& tracer, std::string task)
      : inner_(std::move(inner)),
        label_(std::move(label)),
        tracer_(tracer),
        task_(std::move(task)) {}

  void setParent(int span) { parent_ = span; }

  std::string name() const override { return label_; }

  hayat::Mapping map(const hayat::PolicyContext& context) override {
    const ScopedSpan span(tracer_, "core.policy_call", parent_, task_);
    return inner_->map(context);
  }

  hayat::Mapping placeApplication(const hayat::PolicyContext& context,
                                  const hayat::Mapping& existing,
                                  int appIndex, int activeThreads) override {
    const ScopedSpan span(tracer_, "core.policy_call", parent_, task_);
    return inner_->placeApplication(context, existing, appIndex,
                                    activeThreads);
  }

 private:
  std::unique_ptr<MappingPolicy> inner_;
  std::string label_;
  Tracer& tracer_;
  std::string task_;
  int parent_ = -1;
};

/// One job through the engine's public pieces, on kWorkers threads,
/// with spans around each layer call.
SweepTable runDecomposed(const ExperimentEngine& engine,
                         const ExperimentSpec& spec, Tracer& tracer,
                         int job) {
  const std::string jobTag = std::to_string(job);
  const ScopedSpan jobSpan(tracer, "bench.job", -1, jobTag);
  std::vector<RunTask> tasks;
  {
    const ScopedSpan span(tracer, "engine.expand", jobSpan.id(), jobTag);
    tasks = engine.expand(spec);
  }
  SweepTable table;
  table.runs.resize(tasks.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(kWorkers);
  auto work = [&](int slot) {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < tasks.size();) {
        const RunTask& task = tasks[i];
        const std::string tag = jobTag + "/" + std::to_string(task.index);
        std::optional<System> system;
        {
          const ScopedSpan span(tracer, "core.system_create", jobSpan.id(),
                                tag);
          system.emplace(
              System::create(task.system, spec.populationSeed, task.chip));
        }
        TimedPolicy policy(hayat::PolicyRegistry::global().make(task.policy),
                           task.policy.label(), tracer, tag);
        const ScopedSpan span(tracer, "engine.run_with_policy", jobSpan.id(),
                              tag);
        policy.setParent(span.id());
        table.runs[static_cast<std::size_t>(task.index)] =
            ExperimentEngine::runWithPolicy(*system, task.lifetime, policy,
                                            task.chip, task.repetition);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(slot)] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (int w = 0; w < kWorkers; ++w) pool.emplace_back(work, w);
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return table;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The Figs. 7-10 Hayat/VAA ratios beside the paper's values
/// (EXPERIMENTS.md) — informational, never gated.
std::string accuracyLine(const SweepTable& all) {
  struct Figure {
    const char* label;
    double (*metric)(const RunResult&);
    const char* paper25;
    const char* paper50;
  };
  const Figure figures[] = {
      {"Fig7 dtm_events",
       [](const RunResult& r) {
         return static_cast<double>(r.lifetime.totalDtmEvents());
       },
       "0.90", "0.28"},
      {"Fig8 t_over_ambient",
       [](const RunResult& r) {
         return r.lifetime.averageTemperatureOverAmbient(r.ambient);
       },
       "1.00", "0.95"},
      {"Fig9 chip_fmax_aging",
       [](const RunResult& r) { return r.lifetime.chipFmaxAgingRate(); },
       "n/a", "0.05"},
      {"Fig10 avg_fmax_aging",
       [](const RunResult& r) { return r.lifetime.averageFmaxAgingRate(); },
       "0.937", "0.77"},
  };
  std::string line = "accuracy (Hayat/VAA, informational):";
  char buf[160];
  for (const Figure& f : figures) {
    double r25 = 0.0, r50 = 0.0;
    try {
      r25 = all.aggregateRatio(0.25, f.metric);
      r50 = all.aggregateRatio(0.5, f.metric);
    } catch (const std::exception&) {
      // A zero VAA aggregate leaves the ratio undefined; print 0.
    }
    std::snprintf(buf, sizeof(buf),
                  " %s 25%%=%.3f (paper %s) 50%%=%.3f (paper %s);", f.label,
                  r25, f.paper25, r50, f.paper50);
    line += buf;
  }
  return line;
}

double perJob(double total, std::size_t jobs) {
  return jobs == 0 ? 0.0 : total / static_cast<double>(jobs);
}

double sharedHitRatio(const Probe& p, const char* hits, const char* misses) {
  const auto h = static_cast<double>(p.counter(hits));
  return ratio(h, h + static_cast<double>(p.counter(misses)));
}

}  // namespace

bool isBatchWorkload(const std::string& name) {
  for (const BatchShape& s : shapes())
    if (name == s.name) return true;
  return false;
}

Report runBatch(const Options& options, const Pins& pins, double& setupS) {
  const BatchShape& shape = shapeFor(options.workload);
  hayat::engine::registerBuiltinPolicies();
  // The traced run counts from the first System on, so the shared-cache
  // hit ratios include the set-up's misses.
  if (options.trace) hayat::telemetry::setEnabled(true);
  Report report;

  // Set-up: the cold construction of the first System, which fills the
  // process-wide aging-table, Cholesky and LU caches.
  const ExperimentSpec first = jobSpec(shape, options.seed, 0);
  const auto setupStart = Clock::now();
  {
    const System warm = System::create(first.system, first.populationSeed, 0);
  }
  setupS = secondsBetween(setupStart, Clock::now());
  if (options.setupOnly) return report;

  hayat::engine::EngineConfig config;
  config.workers = kWorkers;
  config.cache = false;
  config.cacheDir = options.runDir + "/cache";
  config.dispatch = "";
  const ExperimentEngine engine(config);
  Tracer tracer(options.trace);

  // The timed loop: run jobs back to back; check them afterwards.
  std::vector<SweepTable> tables;
  const Probe before = takeProbe();
  const auto loopStart = Clock::now();
  for (int job = 0;; ++job) {
    if (options.jobs > 0
            ? job >= options.jobs
            : job > 0 && secondsBetween(loopStart, Clock::now()) >=
                             options.seconds)
      break;
    const ExperimentSpec spec = jobSpec(shape, options.seed, job);
    JobSample sample;
    sample.job = job;
    const auto jobStart = Clock::now();
    SweepTable table;
    try {
      table = options.trace ? runDecomposed(engine, spec, tracer, job)
                            : engine.run(spec);
    } catch (const std::exception& e) {
      sample.ok = false;
      report.fail("job " + std::to_string(job) + ": " + e.what());
    }
    sample.wallS = secondsBetween(jobStart, Clock::now());
    // An engine run hands back every row at once.
    sample.firstRowS = sample.wallS;
    if (!options.trace) report.engineRunS.push_back(sample.wallS);
    report.jobs.push_back(sample);
    tables.push_back(std::move(table));
  }
  report.loopWallS = secondsBetween(loopStart, Clock::now());
  const Probe after = takeProbe();
  report.cpuS = after.selfCpuS - before.selfCpuS;
  report.stealShare = stealShare(before, after);

  // Output checks.
  bool pinChecked = false;
  SweepTable merged;
  long totalSteps = 0;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    JobSample& sample = report.jobs[i];
    ++report.attempted;
    if (!sample.ok) continue;
    const ExperimentSpec spec = jobSpec(shape, options.seed, sample.job);
    for (const RunResult& run : tables[i].runs) {
      sample.chipYears += run.lifetime.horizon;
      for (const hayat::EpochRecord& e : run.lifetime.epochs)
        totalSteps += e.totalSteps;
    }
    sample.digest = digestHex(canonicalBytes(tables[i]));
    std::string problem = checkTable(engine, spec, tables[i]);
    if (const auto pinned =
            pins.find(options.workload, options.seed, sample.job)) {
      pinChecked = true;
      if (*pinned != sample.digest)
        problem = "digest " + sample.digest + " != pinned " + *pinned;
    }
    if (!problem.empty()) {
      sample.ok = false;
      report.fail("job " + std::to_string(sample.job) + ": " + problem);
    }
    for (RunResult& run : tables[i].runs) merged.runs.push_back(std::move(run));
  }
  if (!pinChecked) {
    // No job of this seed is pinned: check the canary job instead.
    ++report.attempted;
    const ExperimentSpec canary = jobSpec(shape, kCanarySeed, 0);
    const auto pinned = pins.find(options.workload, kCanarySeed, 0);
    const std::string digest = digestHex(canonicalBytes(engine.run(canary)));
    if (!pinned || *pinned != digest)
      report.fail("canary digest " + digest + " != pinned " +
                  pinned.value_or("(none)"));
  }

  const std::size_t jobs = report.jobs.size();
  const std::uint64_t hits = after.memoHits - before.memoHits;
  const std::uint64_t misses = after.memoMisses - before.memoMisses;
  const auto windows = static_cast<double>(hits + misses);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trajectory memo: %llu hits, %llu misses; early exit skipped "
                "%llu of %ld steps",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(after.stepsSkipped -
                                                before.stepsSkipped),
                totalSteps);
  report.notes.push_back(buf);
  if (options.workload == "paper_sweep")
    report.notes.push_back(accuracyLine(merged));

  if (options.trace) {
    const auto ns = [&](std::uint64_t a, std::uint64_t b) {
      return perJob(static_cast<double>(b - a) * 1e-9, jobs);
    };
    const auto delta = [&](const char* name) {
      return static_cast<double>(after.counter(name) - before.counter(name));
    };
    const std::vector<SpanRecord> spans = tracer.spans();
    if (!options.spansPath.empty() && !tracer.write(options.spansPath))
      report.fail("could not write " + options.spansPath);
    const std::map<std::string, double> self = selfSecondsByLayer(spans);
    const auto selfOf = [&](const char* layer) {
      const auto it = self.find(layer);
      return perJob(it == self.end() ? 0.0 : it->second, jobs);
    };
    std::vector<double> callUs = spanSeconds(spans, "core.policy_call");
    for (double& c : callUs) c *= 1e6;
    const hayat::LifetimePhaseNanos& p0 = before.phases;
    const hayat::LifetimePhaseNanos& p1 = after.phases;
    const double cacheHits = delta("hayat_result_cache_hits_total");
    const double decisions = delta("hayat_policy_hayat_decisions_total");
    std::map<std::string, double>& m = report.layer;
    m["engine.tasks"] = static_cast<double>(first.taskCount());
    m["engine.result_cache_hit_ratio"] =
        ratio(cacheHits, cacheHits + delta("hayat_result_cache_misses_total"));
    m["engine.result_cache_stores"] =
        perJob(delta("hayat_result_cache_stores_total"), jobs);
    m["engine.wire_bytes"] =
        perJob(delta("hayat_wire_bytes_sent_total") +
                   delta("hayat_wire_bytes_received_total"),
               jobs);
    m["engine.wire_messages"] =
        perJob(delta("hayat_wire_messages_sent_total") +
                   delta("hayat_wire_messages_received_total"),
               jobs);
    m["engine.self_s"] = selfOf("engine");
    m["core.system_create_s"] =
        percentile(spanSeconds(spans, "core.system_create"), 50);
    m["core.lifetime_busy_s"] = ns(p0.total, p1.total);
    m["core.policy_busy_s"] = ns(p0.policy, p1.policy);
    m["core.policy_call_p50_us"] = percentile(callUs, 50);
    m["core.policy_call_p99_us"] = percentile(callUs, 99);
    m["core.candidates_per_decision"] =
        ratio(delta("hayat_policy_candidates_total"), decisions);
    m["core.self_s"] = selfOf("core");
    m["runtime.predictor_baseline_s"] = ns(before.baselineNs, after.baselineNs);
    m["runtime.epoch_busy_s"] = ns(p0.thermal, p1.thermal);
    m["runtime.epoch_windows"] = perJob(windows, jobs);
    m["runtime.memo_hit_ratio"] = ratio(static_cast<double>(hits), windows);
    m["runtime.steps_skipped_ratio"] =
        ratio(static_cast<double>(after.stepsSkipped - before.stepsSkipped),
              static_cast<double>(totalSteps));
    m["runtime.step_allocs"] =
        perJob(static_cast<double>(after.stepAllocs - before.stepAllocs), jobs);
    m["aging.busy_s"] = ns(p0.aging, p1.aging);
    m["aging.table_shared_hit_ratio"] =
        sharedHitRatio(after, "hayat_aging_table_shared_hits_total",
                       "hayat_aging_table_shared_misses_total");
    m["thermal.lu_shared_hit_ratio"] =
        sharedHitRatio(after, "hayat_thermal_lu_shared_hits_total",
                       "hayat_thermal_lu_shared_misses_total");
    m["failure.mc_busy_s"] =
        ns(p0.total, p1.total) - ns(p0.aging, p1.aging) -
        ns(p0.policy, p1.policy) - ns(p0.thermal, p1.thermal);
    m["failure.samples"] = perJob(delta("hayat_failure_samples_total"), jobs);
    // No serve layer runs here.
    for (const char* name :
         {"serve.post_ms", "serve.first_row_wait_ms", "serve.tasks_executed",
          "serve.shared_tasks", "serve.table_cache_hits", "serve.jobs_rejected",
          "serve.worker_task_s", "serve.self_s"})
      m[name] = 0.0;
  }
  return report;
}

int recordPins(const Options& options) {
  hayat::engine::registerBuiltinPolicies();
  hayat::engine::EngineConfig config;
  config.workers = kWorkers;
  config.cache = false;
  config.dispatch = "";
  const ExperimentEngine engine(config);
  for (int job = 0; job < options.record; ++job) {
    std::string digest;
    if (isBatchWorkload(options.workload)) {
      const BatchShape& shape = shapeFor(options.workload);
      digest = digestHex(
          canonicalBytes(engine.run(jobSpec(shape, options.seed, job))));
    } else {
      digest = digestHex(servedCanonicalBytes(
          engine.run(servedJobSpec(options.seed, job))));
    }
    std::printf("%s %llu %d %s\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), job,
                digest.c_str());
  }
  return 0;
}

}  // namespace perfbench
