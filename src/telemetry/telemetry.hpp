// Telemetry runtime: configuration, export-on-exit, crash dumps.
//
// One call wires the whole subsystem:
//
//   hayat::telemetry::configure("/tmp/trace", "sweep");
//
// enables collection (see metrics.hpp / span.hpp) and registers an
// atexit flush that writes two sibling files into the directory:
//
//   <role>-<pid>.metrics.prom   Prometheus text metrics
//   <role>-<pid>.trace.json     Chrome trace_event spans
//
// The per-epoch trace is not telemetry: `--export` / HAYAT_EXPORT write
// it from the result table (engine/reporter.hpp writeEpochsCsv).
// The <role>-<pid> prefix keeps coordinator and worker processes from
// clobbering each other when they share an export directory; `hayat
// trace export` merges the set afterwards.  A std::terminate hook dumps
// the flight recorder before aborting so the last N spans survive a
// crash.
//
// Workers reached over the wire (exec:/tcp:) have no shared filesystem;
// their counters arrive as deltas piggybacked on Result frames and are
// folded into this process via mergeWorkerCounters(), then exported with
// a {source="worker"} label.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace hayat::telemetry {

/// Enables collection, remembers the export directory (created if
/// missing) and role prefix, and registers the atexit flush plus the
/// terminate-time flight-recorder dump.  Safe to call once per process;
/// later calls update directory and role.
void configure(const std::string& dir, const std::string& role);

/// True after configure() succeeded.
bool configured();

/// Export directory ("" when unconfigured).
std::string exportDir();

/// Role prefix used in export file names.
std::string exportRole();

/// Reads HAYAT_TELEMETRY (export directory) and, if set and non-empty,
/// calls configure(dir, roleIfEnv) — unless configure() already ran, so
/// an explicit configuration wins.  Lets forked/exec'd workers and
/// tests opt in without threading a flag through every entry point.
void configureFromEnv(const std::string& roleIfEnv);

/// Folds counter deltas received from a remote worker into this
/// process's worker aggregate (summed across workers and sends).
void mergeWorkerCounters(
    const std::vector<std::pair<std::string, std::uint64_t>>& deltas);

/// The worker aggregate accumulated by mergeWorkerCounters().
std::map<std::string, std::uint64_t> workerCounters();

/// Folds histogram deltas received from a remote worker into this
/// process's worker aggregate.  Buckets sum per upper bound; a delta
/// whose bucket layout disagrees with the accumulated one replaces it
/// (workers of one fleet share a build, so this only happens in tests).
void mergeWorkerHistograms(const std::vector<HistogramSnapshot>& deltas);

/// The worker histogram aggregate, name-sorted.
std::vector<HistogramSnapshot> workerHistograms();

/// Clears the worker counter and histogram aggregates (tests).
void resetWorkerCountersForTest();

/// Registers, once per process, pthread_atfork handlers that hold every
/// telemetry mutex across fork() — the mutexes added by holdAcrossFork(),
/// then the metric registry, this runtime state and the span recorders,
/// always in that order — so a child forked while
/// another thread looks up a counter or fills a shared cache never
/// inherits a locked mutex.  Worker spawning (worker_proc.hpp) calls it
/// before its first fork.
void installForkHandlers();

/// Adds a process-wide mutex a forked worker may take (the System
/// start-up caches) to those installForkHandlers() holds across fork().
/// It must never be taken while a telemetry mutex is held, nor nest
/// with another added mutex.
void holdAcrossFork(std::mutex& mutex);

/// Writes the two export files now.  Returns false if any file could
/// not be written.  Called automatically at exit once configured;
/// harmless to call again (files are rewritten in place).
bool flush();

}  // namespace hayat::telemetry
