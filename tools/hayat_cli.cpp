// hayat — command-line driver for the Hayat library.
//
// Subcommands:
//   lifetime    run a multi-year lifetime simulation for one chip/policy
//               and print (or export) the per-epoch metrics
//   mttf        hard-failure lifetime of one scenario: the point MTTF
//               projection, or with --distribution --samples=N the
//               seeded Monte Carlo system-lifetime distribution
//               (percentiles, per-unit kill counts; --export writes the
//               canonical distribution file)
//   sweep       run a population experiment (chips x darks x policies) on
//               the ExperimentEngine and export the result table;
//               --workers=proc:N|exec:N|tcp:host:port distributes the
//               tasks across worker processes/hosts
//   worker      serve sweep tasks for a remote coordinator: --stdio
//               (spawned by a coordinator) or --listen PORT (TCP; the
//               same port answers HTTP GET /metrics with live
//               Prometheus text, so the worker is a scrape target)
//   serve       run the persistent multi-tenant sweep service: POST specs
//               to /jobs, stream results from /jobs/<id>/results; jobs
//               are journaled to --queue-dir and survive a crash
//   job         client for a serve daemon: submit | status | watch |
//               cancel (watch tails the result stream and can --export
//               files byte-identical to a one-shot sweep)
//   map         compute one epoch's mapping and show the DCM + predicted
//               temperatures
//   population  print variation statistics of a chip population
//   aging       dump an aging-table slice (delay factor vs. years) for a
//               given temperature and duty cycle
//   trace       `trace export --telemetry-dir DIR [--out PREFIX]` merges
//               the per-process telemetry exports of a (possibly
//               distributed) run into one Prometheus file and one
//               Chrome trace
//
// `--telemetry DIR` on any simulating subcommand enables the telemetry
// subsystem (src/telemetry) and exports metrics and spans into DIR at
// exit.  The per-epoch trace is a result: `sweep --export` and
// `lifetime --csv` write it with the reporter's writeEpochsCsv.
//
// Examples:
//   hayat lifetime --policy hayat --dark 0.5 --years 10 --csv out.csv
//   hayat sweep --chips 25 --years 10 --export results/sweep
//   hayat sweep --chips 25 --workers proc:8
//   hayat worker --listen 7707          # then on the coordinator host:
//   hayat sweep --chips 25 --workers tcp:worker-host:7707
//   hayat map --policy vaa --dark 0.25 --seed 7
//   hayat population --chips 25
//   hayat aging --temperature 358 --duty 0.6
//   hayat sweep --chips 4 --workers proc:2 --telemetry /tmp/hayat-trace
//   hayat trace export --telemetry-dir /tmp/hayat-trace --out /tmp/merged
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/statistics.hpp"
#include "common/text_table.hpp"
#include "core/lifetime.hpp"
#include "core/serialize.hpp"
#include "core/system.hpp"
#include "engine/builtin_policies.hpp"
#include "engine/engine.hpp"
#include "engine/reporter.hpp"
#include "engine/result_cache.hpp"
#include "engine/wire.hpp"
#include "engine/worker_proc.hpp"
#include "serve/http_client.hpp"
#include "serve/server.hpp"
#include "runtime/policy_registry.hpp"
#include "runtime/thermal_predictor.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "variation/population.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace hayat;

/// CLI policy names map onto the registry's.
PolicySpec policySpecFor(const std::string& name) {
  if (name == "hayat") return {"Hayat", {}};
  if (name == "vaa") return {"VAA", {}};
  if (name == "random") return {"Random", {}};
  if (name == "coolest") return {"CoolestFirst", {}};
  if (name == "utilization") return {"UtilizationAware", {}};
  throw Error("unknown policy '" + name +
              "' (expected hayat|vaa|random|coolest|utilization)");
}

std::unique_ptr<MappingPolicy> makePolicy(const std::string& name) {
  engine::registerBuiltinPolicies();
  return PolicyRegistry::global().make(policySpecFor(name));
}

int cmdLifetime(FlagParser& flags) {
  const SystemConfig config;
  System system = System::create(
      config, static_cast<std::uint64_t>(flags.getInt("seed")),
      flags.getInt("chip"));

  LifetimeConfig lc;
  lc.horizon = flags.getDouble("years");
  lc.epochLength = flags.getDouble("epoch");
  lc.minDarkFraction = flags.getDouble("dark");
  lc.workloadSeed = static_cast<std::uint64_t>(flags.getInt("workload-seed"));
  if (flags.provided("trace"))
    lc.fixedMix = readWorkloadCsvFile(flags.getString("trace"));
  lc.mixChurn = flags.getDouble("churn");
  lc.incrementalRemap = flags.getBool("incremental");
  auto policy = makePolicy(flags.getString("policy"));
  engine::SweepTable oneRun;
  oneRun.runs.push_back(engine::ExperimentEngine::runWithPolicy(
      system, lc, *policy, flags.getInt("chip")));
  const LifetimeResult& r = oneRun.runs.front().lifetime;

  TextTable table({"year", "avg fmax [GHz]", "chip fmax [GHz]", "min health",
                   "Tpeak [K]", "DTM events"});
  for (const EpochRecord& e : r.epochs) {
    table.addRow(formatDouble(e.startYear + lc.epochLength, 2),
                 {e.averageFmax / 1e9, e.chipFmax / 1e9, e.minHealth,
                  e.chipPeak, static_cast<double>(e.dtmEvents)},
                 3);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Totals: %ld DTM events (%ld migrations), final avg fmax "
              "%.3f GHz, chip fmax %.3f GHz\n",
              r.totalDtmEvents(), r.totalMigrations(),
              r.epochs.back().averageFmax / 1e9,
              r.epochs.back().chipFmax / 1e9);

  if (flags.provided("csv")) {
    std::ofstream out(flags.getString("csv"));
    HAYAT_REQUIRE(out.is_open(), "cannot open CSV output file");
    engine::writeEpochsCsv(out, oneRun);
    HAYAT_REQUIRE(out.good(), "lifetime CSV write failed");
    std::printf("Per-epoch CSV written to %s\n",
                flags.getString("csv").c_str());
  }
  if (flags.provided("checkpoint")) {
    saveHealthMapFile(flags.getString("checkpoint"), system.chip().health());
    std::printf("Health-map checkpoint written to %s\n",
                flags.getString("checkpoint").c_str());
  }
  return 0;
}

/// The spec `hayat sweep` runs and `hayat job submit` submits — shared
/// so submitting the flags of a one-shot sweep produces the same spec
/// hash and therefore shares its result-cache entries.
engine::ExperimentSpec buildSweepSpec(FlagParser& flags) {
  engine::ExperimentSpec spec;
  spec.name = flags.getString("name");
  spec.lifetime.horizon = flags.getDouble("years");
  spec.lifetime.epochLength = flags.getDouble("epoch");
  spec.policies = {{"VAA", {}}, {"Hayat", {}}};
  spec.darkFractions = {0.25, 0.50};
  spec.chips.clear();
  for (int c = 0; c < flags.getInt("chips"); ++c) spec.chips.push_back(c);
  spec.populationSeed = static_cast<std::uint64_t>(flags.getInt("seed"));
  spec.baseSeed = static_cast<std::uint64_t>(flags.getInt("workload-seed"));
  return spec;
}

int cmdSweep(FlagParser& flags) {
  const engine::ExperimentSpec spec = buildSweepSpec(flags);

  engine::EngineConfig engineConfig;
  if (flags.provided("workers"))
    engineConfig.dispatch = flags.getString("workers");
  if (flags.provided("cache-max-bytes"))
    engineConfig.cacheMaxBytes = flags.getUint64("cache-max-bytes");
  if (flags.provided("cache-max-age"))
    engineConfig.cacheMaxAgeSeconds = flags.getDouble("cache-max-age");
  const engine::ExperimentEngine eng(engineConfig);
  if (!eng.dispatchSpec().empty())
    std::printf("Running spec %s (%d tasks) on workers '%s'...\n",
                spec.name.c_str(), spec.taskCount(),
                eng.dispatchSpec().c_str());
  else
    std::printf("Running spec %s (%d tasks) on %d workers...\n",
                spec.name.c_str(), spec.taskCount(), eng.workers());
  const engine::SweepTable table = eng.run(spec);

  TextTable out({"policy", "dark", "avg fmax@end [GHz]",
                 "chip fmax@end [GHz]", "DTM events"});
  for (const double dark : spec.darkFractions) {
    for (const PolicySpec& p : spec.policies) {
      std::vector<double> avgF, chipF, events;
      for (const engine::RunResult* run : table.select(p.label(), dark)) {
        avgF.push_back(run->lifetime.epochs.back().averageFmax / 1e9);
        chipF.push_back(run->lifetime.epochs.back().chipFmax / 1e9);
        events.push_back(
            static_cast<double>(run->lifetime.totalDtmEvents()));
      }
      out.addRow(p.label() + (dark == 0.25 ? " @25%" : " @50%"),
                 {dark, mean(avgF), mean(chipF), mean(events)}, 3);
    }
  }
  std::printf("%s\n", out.render().c_str());

  if (flags.provided("export")) {
    const std::string prefix = flags.getString("export");
    HAYAT_REQUIRE(engine::exportTable(prefix, table),
                  "cannot write export files");
    std::printf("Exported %s_{summary,epochs}.csv and %s.json\n",
                prefix.c_str(), prefix.c_str());
  }
  return 0;
}

/// `hayat mttf` — hard-failure lifetime of one (chip, policy, dark)
/// scenario.  Default: the point-MTTF projection.  --distribution runs
/// the seeded failure Monte Carlo (DESIGN.md §3.14) instead and reports
/// percentiles of the sampled system-lifetime distribution; --export
/// writes the canonical distribution file, which is byte-identical for a
/// given --seed across thread counts and --workers backends.
int cmdMttf(FlagParser& flags) {
  engine::ExperimentSpec spec;
  spec.name = flags.getString("name");
  spec.lifetime.horizon = flags.getDouble("years");
  spec.lifetime.epochLength = flags.getDouble("epoch");
  spec.policies = {policySpecFor(flags.getString("policy"))};
  spec.darkFractions = {flags.getDouble("dark")};
  spec.chips = {flags.getInt("chip")};
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  spec.populationSeed = seed;
  spec.baseSeed = seed;
  const bool distribution = flags.getBool("distribution");
  if (distribution) {
    spec.lifetime.failure.samples = flags.getInt("samples");
    HAYAT_REQUIRE(spec.lifetime.failure.samples >= 1,
                  "--distribution needs --samples >= 1");
  }

  engine::EngineConfig engineConfig;
  if (flags.provided("workers"))
    engineConfig.dispatch = flags.getString("workers");
  const engine::ExperimentEngine eng(engineConfig);
  const engine::SweepTable table = eng.run(spec);
  HAYAT_REQUIRE(table.runs.size() == 1, "mttf spec expands to one task");
  const engine::RunResult& run = table.runs.front();

  const ChipReliability rel = run.lifetime.reliability();
  std::printf("Policy %s, dark %.2f, chip %d over %.2f years:\n",
              run.policy.c_str(), run.darkFraction, run.chip,
              run.lifetime.horizon);
  std::printf("  point MTTF projection: %.2f years (worst core damage "
              "%.4f, average %.4f)\n",
              rel.projectedMttf, rel.worstDamage, rel.averageDamage);

  if (!distribution) return 0;
  HAYAT_REQUIRE(run.lifetime.distribution.has_value(),
                "distribution run produced no distribution");
  const LifetimeDistribution& d = *run.lifetime.distribution;

  TextTable out({"percentile", "system lifetime [years]"});
  for (const double p : {5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0})
    out.addRow("p" + std::to_string(static_cast<int>(p)),
               {d.percentile(p)}, 2);
  std::printf("%zu Monte Carlo samples:\n%s", d.systemLifetimes.size(),
              out.render().c_str());
  std::printf("Mean lifetime %.2f years; survival at horizon %.1f%%; "
              "killer mechanism: %ld EM, %ld TDDB\n",
              d.meanLifetime(),
              100.0 * d.survivalAt(run.lifetime.horizon), d.emKills,
              d.tddbKills);
  TextTable units({"unit", "kills", "deaths"});
  for (const UnitFailureStats& u : d.units)
    units.addRow(u.name, {static_cast<double>(u.kills),
                          static_cast<double>(u.deaths)}, 0);
  std::printf("%s\n", units.render().c_str());

  if (flags.provided("export")) {
    std::ofstream exportOut(flags.getString("export"),
                            std::ios::binary | std::ios::trunc);
    HAYAT_REQUIRE(exportOut.is_open(), "cannot open export file");
    writeDistribution(exportOut, d);
    std::printf("Distribution written to %s\n",
                flags.getString("export").c_str());
  }
  return 0;
}

int cmdMap(FlagParser& flags) {
  const SystemConfig config;
  System system = System::create(
      config, static_cast<std::uint64_t>(flags.getInt("seed")),
      flags.getInt("chip"));
  Chip& chip = system.chip();

  const int budget = std::max(
      1, static_cast<int>(chip.coreCount() *
                          (1.0 - flags.getDouble("dark"))));
  Rng rng(static_cast<std::uint64_t>(flags.getInt("workload-seed")));
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, budget, 3.0e9);

  auto policy = makePolicy(flags.getString("policy"));
  PolicyContext ctx;
  ctx.chip = &chip;
  ctx.thermal = &system.thermal();
  ctx.leakage = &system.leakage();
  ctx.mix = &mix;
  ctx.minDarkFraction = flags.getDouble("dark");
  const Mapping m = policy->map(ctx);

  std::printf("Workload: %zu applications, %d threads mapped\n",
              mix.applications.size(), m.assignedCount());
  std::printf("Dark Core Map ('#' = powered):\n%s\n",
              renderBoolMap(chip.grid(),
                            m.toDarkCoreMap(chip.grid()).flags())
                  .c_str());

  const ThermalPredictor predictor(system.thermal(), system.leakage());
  const int n = chip.coreCount();
  std::vector<bool> on(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) on[static_cast<std::size_t>(i)] = m.coreBusy(i);
  const Vector temps =
      predictor.predict(m.averageDynamicPower(mix, 3.0e9), on);
  std::printf("Predicted steady-state core temperatures [K]:\n%s",
              renderHeatmap(chip.grid(), temps, 1).c_str());
  return 0;
}

int cmdPopulation(FlagParser& flags) {
  PopulationConfig pc;
  const int chips = flags.getInt("chips");
  const auto population = generateChipPopulation(
      pc, chips, static_cast<std::uint64_t>(flags.getInt("seed")));
  std::vector<double> spreads;
  TextTable table({"chip", "fmax min [GHz]", "fmax mean [GHz]",
                   "fmax max [GHz]", "spread [%]"});
  for (int c = 0; c < chips; ++c) {
    const VariationMap& chip = population[static_cast<std::size_t>(c)];
    std::vector<double> f;
    for (int i = 0; i < chip.coreCount(); ++i)
      f.push_back(chip.coreInitialFmax(i) / 1e9);
    spreads.push_back(frequencySpread(chip));
    table.addRow("chip-" + std::to_string(c),
                 {minOf(f), mean(f), maxOf(f), 100.0 * spreads.back()}, 2);
  }
  std::printf("%s\nMean spread: %.1f%%\n", table.render().c_str(),
              100.0 * mean(spreads));
  return 0;
}

int cmdExportTrace(FlagParser& flags) {
  Rng rng(static_cast<std::uint64_t>(flags.getInt("workload-seed")));
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 32, 3.0e9);
  if (flags.provided("csv")) {
    writeWorkloadCsvFile(flags.getString("csv"), mix);
    std::printf("Workload trace written to %s (%zu applications, %d "
                "threads)\n",
                flags.getString("csv").c_str(), mix.applications.size(),
                mix.totalMaxThreads());
  } else {
    writeWorkloadCsv(std::cout, mix);
  }
  return 0;
}

int cmdWorker(FlagParser& flags) {
  if (flags.getBool("stdio")) return engine::workerServeStdio();
  if (flags.provided("listen"))
    return engine::workerListenTcp(flags.getInt("listen"));
  throw Error("worker needs --stdio or --listen PORT");
}

/// Reads a bearer token file, trimming surrounding whitespace.
std::string readTokenFile(const std::string& path) {
  std::ifstream in(path);
  HAYAT_REQUIRE(in.is_open(), "cannot read token file " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string token = buf.str();
  const auto first = token.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = token.find_last_not_of(" \t\r\n");
  return token.substr(first, last - first + 1);
}

/// `hayat serve` — the persistent multi-tenant sweep daemon
/// (src/serve/server.hpp).  Runs until SIGTERM/SIGINT, then drains.
int cmdServe(FlagParser& flags) {
  serve::ServeConfig config;
  if (flags.provided("listen")) config.port = flags.getInt("listen");
  config.queueDir = flags.getString("queue-dir");
  if (flags.provided("workers")) config.dispatch = flags.getString("workers");
  config.localWorkers = flags.getInt("local-workers");
  config.limits.maxQueueDepth = flags.getInt("max-queue");
  config.limits.maxClientActive = flags.getInt("max-client-jobs");
  config.maxRunningJobs = flags.getInt("max-running");
  if (flags.provided("auth-token-file")) {
    config.authToken = readTokenFile(flags.getString("auth-token-file"));
    HAYAT_REQUIRE(!config.authToken.empty(),
                  "auth token file is empty: " +
                      flags.getString("auth-token-file"));
  }
  return serve::serveMain(config);
}

/// `hayat job submit|status|watch|cancel` — client side of the serve
/// API.  `watch` tails the results stream and rebuilds the SweepTable,
/// so `--export` writes files byte-identical to a one-shot
/// `hayat sweep --export` of the same spec.
int cmdJob(FlagParser& flags) {
  const auto& pos = flags.positional();
  HAYAT_REQUIRE(pos.size() >= 2,
                "usage: hayat job submit|status|watch|cancel "
                "--server host:port [--id JOB]");
  const std::string verb = pos[1];
  std::string host;
  int port = 0;
  serve::parseHostPort(flags.getString("server"), host, port);

  std::vector<std::pair<std::string, std::string>> headers;
  if (flags.provided("auth-token-file"))
    headers.emplace_back(
        "Authorization",
        "Bearer " + readTokenFile(flags.getString("auth-token-file")));
  if (flags.provided("client"))
    headers.emplace_back("X-Client", flags.getString("client"));

  if (verb == "submit") {
    const engine::ExperimentSpec spec = buildSweepSpec(flags);
    std::string target = "/jobs";
    if (flags.getInt("priority") != 0)
      target += "?priority=" + std::to_string(flags.getInt("priority"));
    serve::HttpClientResponse resp;
    HAYAT_REQUIRE(serve::httpRequest(host, port, "POST", target,
                                     engine::encodeSpec(spec), headers,
                                     resp),
                  "cannot reach server " + flags.getString("server"));
    std::fputs(resp.body.c_str(), resp.status == 201 ? stdout : stderr);
    return resp.status == 201 ? 0 : 1;
  }

  if (verb == "status") {
    const std::string target = flags.provided("id")
                                   ? "/jobs/" + flags.getString("id")
                                   : "/jobs";
    serve::HttpClientResponse resp;
    HAYAT_REQUIRE(serve::httpRequest(host, port, "GET", target, "", headers,
                                     resp),
                  "cannot reach server " + flags.getString("server"));
    std::fputs(resp.body.c_str(), resp.status == 200 ? stdout : stderr);
    return resp.status == 200 ? 0 : 1;
  }

  if (verb == "cancel") {
    HAYAT_REQUIRE(flags.provided("id"), "cancel needs --id JOB");
    serve::HttpClientResponse resp;
    HAYAT_REQUIRE(serve::httpRequest(host, port, "DELETE",
                                     "/jobs/" + flags.getString("id"), "",
                                     headers, resp),
                  "cannot reach server " + flags.getString("server"));
    std::fputs(resp.body.c_str(), resp.status == 200 ? stdout : stderr);
    return resp.status == 200 ? 0 : 1;
  }

  if (verb == "watch") {
    HAYAT_REQUIRE(flags.provided("id"), "watch needs --id JOB");
    const std::string id = flags.getString("id");
    engine::SweepTable table;
    bool rowsOk = true;
    const auto onChunk = [&](const std::string& row) {
      std::istringstream in(row);
      engine::RunResult result;
      if (!engine::readRunResult(in, result)) {
        rowsOk = false;
        return false;
      }
      table.runs.push_back(std::move(result));
      std::fprintf(stderr, "[watch] %zu rows\r", table.runs.size());
      return true;
    };
    int status = 0;
    const bool complete = serve::httpStream(
        host, port, "/jobs/" + id + "/results", headers, onChunk, status);
    HAYAT_REQUIRE(status == 0 || status == 200,
                  "server answered " + std::to_string(status));
    HAYAT_REQUIRE(rowsOk, "malformed result row from server");
    HAYAT_REQUIRE(complete,
                  "stream truncated (job cancelled/failed or server "
                  "stopped)");
    std::fprintf(stderr, "\n");
    std::printf("Job %s: %zu result rows\n", id.c_str(),
                table.runs.size());
    if (flags.provided("export")) {
      const std::string prefix = flags.getString("export");
      HAYAT_REQUIRE(engine::exportTable(prefix, table),
                    "cannot write export files");
      std::printf("Exported %s_{summary,epochs}.csv and %s.json\n",
                  prefix.c_str(), prefix.c_str());
    }
    return 0;
  }

  throw Error("unknown job verb '" + verb +
              "' (expected submit|status|watch|cancel)");
}

/// `hayat trace export` — fold the per-process telemetry exports of one
/// run (coordinator plus any proc:/exec: workers that shared the
/// directory) into one Prometheus file and one validated Chrome trace.
int cmdTrace(FlagParser& flags) {
  const auto& pos = flags.positional();
  HAYAT_REQUIRE(pos.size() >= 2 && pos[1] == "export",
                "usage: hayat trace export --telemetry-dir DIR "
                "[--out PREFIX]");
  const std::string dir = flags.getString("telemetry-dir");
  HAYAT_REQUIRE(!dir.empty(), "trace export needs --telemetry-dir DIR");
  HAYAT_REQUIRE(std::filesystem::is_directory(dir),
                "telemetry directory not found: " + dir);
  const std::string prefix =
      flags.provided("out") ? flags.getString("out") : dir + "/merged";
  const std::string promPath = prefix + ".metrics.prom";
  const std::string tracePath = prefix + ".trace.json";

  auto endsWith = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  std::vector<std::string> promFiles, traceFiles;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    // Re-exporting must not fold a previous merge back in.
    if (path == promPath || path == tracePath) continue;
    if (endsWith(path, ".metrics.prom")) promFiles.push_back(path);
    if (endsWith(path, ".trace.json")) traceFiles.push_back(path);
  }
  std::sort(promFiles.begin(), promFiles.end());
  std::sort(traceFiles.begin(), traceFiles.end());
  HAYAT_REQUIRE(!promFiles.empty() || !traceFiles.empty(),
                "no telemetry exports found in " + dir);

  if (!promFiles.empty()) {
    std::ostringstream merged;
    HAYAT_REQUIRE(telemetry::mergePrometheusFiles(promFiles, merged),
                  "cannot merge Prometheus exports");
    std::ofstream out(promPath);
    HAYAT_REQUIRE(out.is_open(), "cannot write " + promPath);
    out << merged.str();
    std::printf("Merged %zu metrics file(s) into %s\n", promFiles.size(),
                promPath.c_str());
  }
  if (!traceFiles.empty()) {
    std::ostringstream merged;
    HAYAT_REQUIRE(telemetry::mergeChromeTraceFiles(traceFiles, merged),
                  "cannot merge Chrome trace exports");
    HAYAT_REQUIRE(telemetry::validateJson(merged.str()),
                  "merged trace is not valid JSON");
    std::ofstream out(tracePath);
    HAYAT_REQUIRE(out.is_open(), "cannot write " + tracePath);
    out << merged.str();
    std::printf("Merged %zu trace file(s) into %s\n", traceFiles.size(),
                tracePath.c_str());
  }
  return 0;
}

int cmdAging(FlagParser& flags) {
  SystemConfig config;
  System system = System::create(
      config, static_cast<std::uint64_t>(flags.getInt("seed")));
  const AgingTable& table = system.chip().agingTable();
  const double t = flags.getDouble("temperature");
  const double d = flags.getDouble("duty");
  TextTable out({"years", "delay factor", "health", "fmax scale"});
  for (double y : {0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0}) {
    const double factor = table.delayFactor(t, d, y);
    out.addRow(formatDouble(y, 2), {factor, 1.0 / factor, 1.0 / factor}, 4);
  }
  std::printf("Aging-table slice at T=%.1f K, duty=%.2f:\n%s", t, d,
              out.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hayat;
  FlagParser flags(
      "hayat",
      "command-line driver (subcommands: lifetime, mttf, sweep, map, "
      "population, aging, export-trace, worker, serve, job, trace)");
  flags.addFlag("policy",
                "mapping policy: hayat|vaa|random|coolest|utilization",
                "hayat");
  flags.addFlag("dark", "minimum dark-silicon fraction", "0.5");
  flags.addFlag("years", "simulated lifetime horizon", "10");
  flags.addFlag("epoch", "aging epoch length in years", "0.25");
  flags.addFlag("seed", "chip population seed", "2015");
  flags.addFlag("chip", "chip index within the population", "0");
  flags.addFlag("workload-seed", "workload sequence seed", "99");
  flags.addFlag("chips", "population size (population subcommand)", "25");
  flags.addFlag("temperature", "temperature in kelvin (aging subcommand)",
                "358");
  flags.addFlag("duty", "duty cycle (aging subcommand)", "0.6");
  flags.addFlag("csv", "write per-epoch CSV to this path");
  flags.addFlag("distribution",
                "mttf subcommand: Monte Carlo a system-lifetime "
                "distribution instead of the point projection", "false");
  flags.addFlag("samples",
                "mttf subcommand: Monte Carlo samples with --distribution",
                "256");
  flags.addFlag("trace", "run a workload trace CSV instead of synthetic mixes");
  flags.addFlag("churn", "fraction of applications replaced per epoch", "0");
  flags.addFlag("incremental",
                "with --churn: place arrivals incrementally", "false");
  flags.addFlag("checkpoint", "write a health-map checkpoint to this path");
  flags.addFlag("export",
                "sweep subcommand: export prefix for the result table");
  flags.addFlag("workers",
                "sweep subcommand: distribute tasks across worker "
                "processes (proc:N|exec:N|tcp:host:port, comma-separated)");
  flags.addFlag("stdio",
                "worker subcommand: serve a coordinator on stdin/stdout",
                "false");
  flags.addFlag("listen",
                "worker/serve subcommand: listen on this TCP port "
                "(0 picks one); GET /metrics on the same port returns "
                "live Prometheus text");
  flags.addFlag("telemetry",
                "enable telemetry and export metrics and trace spans "
                "into this directory at exit");
  flags.addFlag("cache-max-bytes",
                "sweep subcommand: evict oldest result-cache entries "
                "beyond this many bytes (0 = unbounded)", "0");
  flags.addFlag("cache-max-age",
                "sweep subcommand: evict result-cache entries older than "
                "this many seconds (0 = flush every entry; omit the flag "
                "to disable the age bound)", "0");
  flags.addFlag("name", "sweep/job spec name (the result-cache prefix)",
                "cli-sweep");
  flags.addFlag("queue-dir",
                "serve subcommand: durable job-queue directory",
                "hayat_jobs");
  flags.addFlag("auth-token-file",
                "serve/job: file holding the bearer token (serve requires "
                "it on /jobs*; job sends it)");
  flags.addFlag("local-workers",
                "serve subcommand: in-process lanes when --workers is not "
                "given", "2");
  flags.addFlag("max-queue",
                "serve subcommand: max active (queued+running) jobs before "
                "429", "64");
  flags.addFlag("max-client-jobs",
                "serve subcommand: max active jobs per client before 429",
                "8");
  flags.addFlag("max-running",
                "serve subcommand: jobs executing concurrently", "4");
  flags.addFlag("server", "job subcommand: serve daemon host:port");
  flags.addFlag("id", "job subcommand: job id (status/watch/cancel)");
  flags.addFlag("priority",
                "job submit: scheduling priority (higher runs first)", "0");
  flags.addFlag("client",
                "job subcommand: client id for per-client admission "
                "control");
  flags.addFlag("telemetry-dir",
                "trace subcommand: directory holding telemetry exports");
  flags.addFlag("out", "trace subcommand: output path prefix for the "
                       "merged files (default: <telemetry-dir>/merged)");

  try {
    if (!flags.parse(argc, argv)) return 0;
    const auto& pos = flags.positional();
    const std::string cmd = pos.empty() ? "lifetime" : pos.front();
    // `trace export` only reads existing exports; configuring telemetry
    // there would pollute the directory it is merging.
    if (flags.provided("telemetry") && cmd != "trace")
      telemetry::configure(flags.getString("telemetry"), cmd);
    if (cmd == "lifetime") return cmdLifetime(flags);
    if (cmd == "mttf") return cmdMttf(flags);
    if (cmd == "sweep") return cmdSweep(flags);
    if (cmd == "map") return cmdMap(flags);
    if (cmd == "population") return cmdPopulation(flags);
    if (cmd == "export-trace") return cmdExportTrace(flags);
    if (cmd == "aging") return cmdAging(flags);
    if (cmd == "worker") return cmdWorker(flags);
    if (cmd == "serve") return cmdServe(flags);
    if (cmd == "job") return cmdJob(flags);
    if (cmd == "trace") return cmdTrace(flags);
    std::fprintf(stderr, "unknown subcommand '%s'\n%s", cmd.c_str(),
                 flags.helpText().c_str());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
