// The served_jobs workload: an in-process ServeServer on loopback with a
// proc:2 worker fleet (the topology of CI's serve-smoke job), loaded by a
// closed loop of two clients.
//
// Each client submits small 4x4 sweeps, each with its own seeds, and
// streams every job to its last row before submitting the next one.
// Every fourth submission of a client re-submits a spec it has already
// finished, so both the read path (the finished result) and the write
// path (compute, cache store, journal) run in every run.  A job is timed
// from POST /jobs to its last streamed row.  After the loop every
// distinct spec is run again through the in-process ExperimentEngine and
// the streamed rows must match its bytes exactly.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "core/system.hpp"
#include "engine/builtin_policies.hpp"
#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/wire.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "serve/http_client.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using hayat::engine::ExperimentEngine;
using hayat::engine::ExperimentSpec;
using hayat::engine::SweepTable;

constexpr int kClients = 2;
constexpr int kFleetWorkers = 2;  ///< forked worker processes (proc:2)
constexpr int kResubmitEvery = 4;  ///< every 4th submission re-submits
constexpr int kTimeoutMs = 30000;  ///< per request / stream read

/// A small 4x4 sweep: `chips` chips x {VAA, Hayat} at 50 % dark.
ExperimentSpec makeSpec(int chips, double horizon, std::uint64_t populationSeed,
                        std::uint64_t baseSeed) {
  ExperimentSpec spec;
  spec.name = "served_jobs";
  spec.system.population.coreGrid = hayat::GridShape(4, 4);
  spec.lifetime.horizon = horizon;
  spec.lifetime.epochLength = 0.25;
  spec.policies = {{"VAA", {}}, {"Hayat", {}}};
  spec.chips.clear();
  for (int c = 0; c < chips; ++c) spec.chips.push_back(c);
  spec.darkFractions = {0.5};
  spec.populationSeed = populationSeed;
  spec.baseSeed = baseSeed;
  return spec;
}

/// One finished or failed submission, as its client recorded it.
struct Submission {
  JobSample sample;
  std::string rows;         ///< concatenated streamed rows
  double postS = 0.0;       ///< POST /jobs round trip
  double firstRowWaitS = 0.0;
  std::string error;        ///< "" when the job succeeded
};

/// Submits `spec` and streams its rows to the end.
Submission submit(int port, const ExperimentSpec& spec, int job,
                  const std::string& client, Tracer& tracer) {
  Submission s;
  s.sample.job = job;
  const std::string tag = std::to_string(job);
  const ScopedSpan jobSpan(tracer, "bench.job", -1, tag);
  const auto start = Clock::now();
  hayat::serve::HttpClientResponse response;
  bool posted = false;
  {
    const ScopedSpan span(tracer, "serve.post", jobSpan.id(), tag);
    posted = hayat::serve::httpRequest(
        "127.0.0.1", port, "POST", "/jobs", hayat::engine::encodeSpec(spec),
        {{"X-Client", client}}, response, kTimeoutMs);
  }
  s.postS = secondsBetween(start, Clock::now());
  if (!posted || response.status != 201) {
    s.error = "POST /jobs refused (status " + std::to_string(response.status) +
              ")";
    s.sample.wallS = s.postS;
    return s;
  }
  const std::size_t at = response.body.find("id=");
  const std::string id =
      at == std::string::npos
          ? std::string()
          : response.body.substr(at + 3, response.body.find('\n', at) - at - 3);

  int rows = 0, status = 0;
  bool complete = false;
  {
    const ScopedSpan stream(tracer, "serve.stream", jobSpan.id(), tag);
    const int wait = tracer.begin("serve.first_row_wait", stream.id(), tag);
    const auto streamStart = Clock::now();
    complete = hayat::serve::httpStream(
        "127.0.0.1", port, "/jobs/" + id + "/results", {},
        [&](const std::string& chunk) {
          if (rows++ == 0) {
            tracer.end(wait);
            s.firstRowWaitS = secondsBetween(streamStart, Clock::now());
            s.sample.firstRowS = secondsBetween(start, Clock::now());
          }
          s.rows += chunk;
          return true;
        },
        status, kTimeoutMs);
    if (rows == 0) tracer.end(wait);
  }
  s.sample.wallS = secondsBetween(start, Clock::now());
  if (!complete || status != 200 || rows != spec.taskCount())
    s.error = "job " + id + " streamed " + std::to_string(rows) + " of " +
              std::to_string(spec.taskCount()) + " rows (status " +
              std::to_string(status) + (complete ? ")" : ", truncated)");
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ExperimentSpec servedJobSpec(std::uint64_t seed, int job) {
  const auto j = static_cast<std::uint64_t>(job);
  return makeSpec(2, 3.0, mixSeed(seed, j, 1), mixSeed(seed, j, 2));
}

std::string servedCanonicalBytes(const SweepTable& table) {
  std::ostringstream out;
  for (const hayat::engine::RunResult& run : table.runs)
    hayat::engine::writeRunResult(out, run);
  return out.str();
}

Report runServed(const Options& options, const Pins& pins, double& setupS) {
  namespace fs = std::filesystem;
  hayat::engine::registerBuiltinPolicies();
  Report report;

  const std::string dir = options.runDir + "/serve";
  fs::remove_all(dir);
  fs::create_directories(dir);
  hayat::serve::ServeConfig config;
  config.port = 0;
  config.queueDir = dir + "/jobs";
  config.dispatch = "proc:" + std::to_string(kFleetWorkers);
  config.maxRunningJobs = kClients;
  config.limits.maxQueueDepth = 4 * kClients;
  config.limits.maxClientActive = 2;
  config.cache = true;
  config.cacheDir = dir + "/cache";
  config.taskTimeoutSeconds = kTimeoutMs / 1000.0;
  Tracer tracer(options.trace);

  // Set-up: the cold first System, the server, and the fleet.  The
  // scheduler forks a worker when its lane takes its first task, so
  // small warm-up jobs run until every worker is alive.
  const ExperimentSpec first = servedJobSpec(options.seed, 0);
  const auto setupStart = Clock::now();
  {
    const hayat::System warm =
        hayat::System::create(first.system, first.populationSeed, 0);
  }
  hayat::serve::ServeServer server(config);
  if (!server.start()) {
    report.fail("could not bind a loopback port");
    return report;
  }
  Tracer untraced(false);
  std::string warmError;
  for (int attempt = 0; warmError.empty() && attempt < 8 &&
                        liveChildren() < kFleetWorkers;
       ++attempt) {
    const ExperimentSpec warmup =
        makeSpec(2, 0.25, first.populationSeed,
                 mixSeed(options.seed, static_cast<std::uint64_t>(attempt), 3));
    warmError = submit(server.port(), warmup, -1, "setup", untraced).error;
  }
  setupS = secondsBetween(setupStart, Clock::now());
  if (warmError.empty() && liveChildren() < kFleetWorkers)
    warmError = "the worker fleet did not start";
  if (!warmError.empty()) report.fail("warm-up: " + warmError);
  if (options.setupOnly || !warmError.empty()) {
    server.stop();
    fs::remove_all(dir);
    return report;
  }

  // Telemetry goes on only now, with every worker forked: a proc: worker
  // forked while telemetry is on can deadlock at start-up (it locks the
  // metrics registry, whose mutex another thread of this process may have
  // held at fork time), and the scheduler discards worker metrics anyway.
  if (options.trace) hayat::telemetry::setEnabled(true);

  // The closed loop.  Client c's n-th new spec is job kClients * n + c.
  std::vector<std::vector<Submission>> logs(kClients);
  std::atomic<int> started{0};
  const Probe before = takeProbe();
  const auto loopStart = Clock::now();
  auto client = [&](int c) {
    std::vector<int> finished;
    int fresh = 0;
    for (int i = 0;; ++i) {
      if (options.jobs > 0
              ? started.fetch_add(1) >= options.jobs
              : secondsBetween(loopStart, Clock::now()) >= options.seconds)
        break;
      const bool resubmit =
          i % kResubmitEvery == kResubmitEvery - 1 && finished.size() >= 2;
      const int job = resubmit ? finished[finished.size() - 2]
                               : kClients * fresh++ + c;
      Submission s = submit(server.port(), servedJobSpec(options.seed, job),
                            job, "client" + std::to_string(c), tracer);
      s.sample.resubmit = resubmit;
      if (s.error.empty() && !resubmit) finished.push_back(job);
      logs[static_cast<std::size_t>(c)].push_back(std::move(s));
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  report.loopWallS = secondsBetween(loopStart, Clock::now());
  const Probe after = takeProbe();
  report.cpuS =
      (after.selfCpuS - before.selfCpuS) + childCpuDelta(before, after);
  report.stealShare = stealShare(before, after);
  server.stop();
  fs::remove_all(dir);

  // Output checks: every distinct spec against an in-process engine run.
  hayat::engine::EngineConfig engineConfig;
  engineConfig.workers = kWorkers;
  engineConfig.cache = false;
  engineConfig.dispatch = "";
  const ExperimentEngine engine(engineConfig);
  std::map<int, std::string> reference;
  bool pinChecked = false;
  std::vector<double> postS, firstRowWaitS;
  for (std::vector<Submission>& log : logs) {
    for (Submission& s : log) {
      ++report.attempted;
      const ExperimentSpec spec = servedJobSpec(options.seed, s.sample.job);
      if (s.error.empty()) {
        auto it = reference.find(s.sample.job);
        if (it == reference.end()) {
          const auto t0 = Clock::now();
          const std::string bytes = servedCanonicalBytes(engine.run(spec));
          report.engineRunS.push_back(secondsBetween(t0, Clock::now()));
          it = reference.emplace(s.sample.job, bytes).first;
        }
        s.sample.digest = digestHex(s.rows);
        if (s.rows != it->second) {
          s.error = "streamed rows differ from the in-process engine run";
        } else if (const auto pinned = pins.find(options.workload,
                                                 options.seed, s.sample.job)) {
          pinChecked = true;
          if (*pinned != s.sample.digest)
            s.error = "digest " + s.sample.digest + " != pinned " + *pinned;
        }
      }
      if (!s.sample.resubmit)
        s.sample.chipYears = spec.taskCount() * spec.lifetime.horizon;
      s.sample.ok = s.error.empty();
      if (!s.sample.ok)
        report.fail("job " + std::to_string(s.sample.job) + ": " + s.error);
      postS.push_back(s.postS);
      if (s.firstRowWaitS > 0.0) firstRowWaitS.push_back(s.firstRowWaitS);
      report.jobs.push_back(s.sample);
    }
  }
  if (!pinChecked) {
    ++report.attempted;
    const auto pinned = pins.find(options.workload, kCanarySeed, 0);
    const std::string digest = digestHex(
        servedCanonicalBytes(engine.run(servedJobSpec(kCanarySeed, 0))));
    if (!pinned || *pinned != digest)
      report.fail("canary digest " + digest + " != pinned " +
                  pinned.value_or("(none)"));
  }
  const double rejected = static_cast<double>(
      after.counter("hayat_serve_jobs_rejected_total") -
      before.counter("hayat_serve_jobs_rejected_total"));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "served %zu jobs (%zu distinct specs) from %d clients on a "
                "proc:%d fleet",
                report.jobs.size(), reference.size(), kClients, kFleetWorkers);
  report.notes.push_back(buf);

  if (options.trace) {
    const std::size_t jobs = report.jobs.size();
    const auto perJob = [&](double total) {
      return jobs == 0 ? 0.0 : total / static_cast<double>(jobs);
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
      return perJob(it == self.end() ? 0.0 : it->second);
    };
    const double hits = delta("hayat_result_cache_hits_total");
    const double executed = delta("hayat_serve_tasks_executed_total");
    std::map<std::string, double>& m = report.layer;
    m["engine.tasks"] = static_cast<double>(first.taskCount());
    m["engine.result_cache_hit_ratio"] =
        ratio(hits, hits + delta("hayat_result_cache_misses_total"));
    m["engine.result_cache_stores"] =
        perJob(delta("hayat_result_cache_stores_total"));
    m["engine.wire_bytes"] = perJob(delta("hayat_wire_bytes_sent_total") +
                                    delta("hayat_wire_bytes_received_total"));
    m["engine.wire_messages"] =
        perJob(delta("hayat_wire_messages_sent_total") +
               delta("hayat_wire_messages_received_total"));
    m["engine.self_s"] = selfOf("engine");
    m["serve.post_ms"] = percentile(postS, 50) * 1e3;
    m["serve.first_row_wait_ms"] = percentile(firstRowWaitS, 50) * 1e3;
    m["serve.tasks_executed"] = perJob(executed);
    m["serve.shared_tasks"] = perJob(delta("hayat_serve_shared_tasks_total"));
    m["serve.table_cache_hits"] =
        perJob(delta("hayat_serve_table_cache_hits_total"));
    m["serve.jobs_rejected"] = perJob(rejected);
    // The scheduler drops the workers' metric sections, so the worker
    // task time is read from the fleet's own CPU counters instead.
    m["serve.worker_task_s"] = ratio(childCpuDelta(before, after), executed);
    m["serve.self_s"] = selfOf("serve");
    // The simulation runs in the worker processes, out of this process's
    // accumulators and spans.
    for (const char* name :
         {"core.system_create_s", "core.lifetime_busy_s", "core.policy_busy_s",
          "core.policy_call_p50_us", "core.policy_call_p99_us",
          "core.candidates_per_decision", "core.self_s",
          "runtime.predictor_baseline_s", "runtime.epoch_busy_s",
          "runtime.epoch_windows", "runtime.memo_hit_ratio",
          "runtime.steps_skipped_ratio", "runtime.step_allocs", "aging.busy_s",
          "aging.table_shared_hit_ratio", "thermal.lu_shared_hit_ratio",
          "failure.mc_busy_s", "failure.samples"})
      m[name] = 0.0;
  }
  return report;
}

}  // namespace perfbench
