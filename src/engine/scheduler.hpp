// The sweep scheduler: the one lane layer that runs tasks on a worker
// fleet (DESIGN.md §3.6, §3.12).  `hayat serve` keeps one scheduler for
// the life of the daemon and runs *many* specs concurrently on its fleet
// and result cache; a one-shot `hayat sweep --workers=...` builds one
// per ExperimentEngine::run call and attaches its single spec.
//
//   - Deduplication.  Execution is keyed by spec hash (a SpecRun).  Two
//     jobs submitting the same spec attach to the same SpecRun — the
//     second job's tasks are served entirely from the first's results
//     (in flight or finished), never recomputed.  Completed SpecRuns are
//     stored in the engine's on-disk result cache, and a new SpecRun
//     first tries to load from it — so serve jobs, one-shot CLI sweeps,
//     and restarts after a crash all share one cache.  A completed run
//     whose table is on disk leaves memory when its last job detaches;
//     a later job for that spec loads it back from the cache, so a
//     long-lived daemon does not grow with every spec it has served.
//   - Fair interleaving.  Lanes pick tasks from the highest-priority
//     SpecRun level with work pending and round-robin across the runs
//     inside it, so a 10,000-task job cannot starve a 4-task job at the
//     same priority, and a higher-priority job overtakes both.
//   - One fleet.  A lane is either a local worker thread or one remote
//     worker process (proc:/exec:/tcp:, worker_proc.hpp).  Remote lanes
//     speak the wire protocol; since v5 a worker keeps every spec it has
//     been sent (keyed by hash), so one connection interleaves tasks
//     from all concurrent jobs.  A lane pulls its next task only when it
//     is idle, so a slow worker never holds queued work another lane
//     could run.  A lane whose worker dies, wedges past the task timeout
//     or answers out of protocol is killed, runs that task itself, and
//     respawns the worker on a bounded budget; past the budget it
//     degrades to local execution — a sweep never fails because a fleet
//     did.  Lanes hand telemetry on to their workers (TelemetryOn) and
//     merge the metric deltas each Result frame carries.
//
// Determinism contract: every cell of a SpecRun holds the canonical
// writeRunResult record of its task, so the concatenation of rows 0..n-1
// is byte-identical to a serial one-shot run of the same spec no matter
// which lanes computed which tasks, in which order, for which jobs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/worker_proc.hpp"

namespace hayat::engine {

struct SchedulerConfig {
  /// Worker fleet: "" runs tasks on `localWorkers` in-process lanes;
  /// otherwise an endpoint list ("proc:2", "tcp:host:port", ...) — one
  /// lane per endpoint slot, the lane index being the slot's fault-plan
  /// worker number.
  std::string dispatch;
  int localWorkers = 2;
  bool cache = true;          ///< consult/store the on-disk result cache
  std::string cacheDir;       ///< "" resolves like the engine (env, default)
  double taskTimeoutSeconds = 300.0;  ///< remote result wait per task
  int maxLaneRespawns = 3;    ///< worker deaths tolerated per lane
};

class SweepScheduler;

/// One deduplicated execution of a spec.  All mutable state is guarded
/// by the owning scheduler's mutex; the public observers take it.
class SpecRun {
 public:
  const ExperimentSpec& spec() const { return spec_; }
  std::uint64_t hash() const { return hash_; }
  int taskCount() const { return static_cast<int>(tasks_.size()); }

  int completedTasks() const;
  bool complete() const;
  bool failed() const;
  std::string error() const;

  /// Blocks until row `index` (the canonical writeRunResult record) is
  /// available, the run fails or is abandoned (nullopt), or `timeoutMs`
  /// elapses (nullopt).
  std::optional<std::string> waitRow(int index, int timeoutMs) const;

  /// The merged table; valid once complete().
  SweepTable table() const;

 private:
  friend class SweepScheduler;

  enum class CellState { Pending, InFlight, Done };
  struct Cell {
    CellState state = CellState::Pending;
    std::string row;            ///< canonical record once Done
    RunResult result;
  };

  explicit SpecRun(SweepScheduler* owner) : owner_(owner) {}

  SweepScheduler* owner_;
  ExperimentSpec spec_;
  std::uint64_t hash_ = 0;
  std::string wirePayload_;     ///< encodeSpec(spec), sent to remote lanes
  std::vector<RunTask> tasks_;
  std::vector<Cell> cells_;
  std::deque<int> pending_;     ///< indices not yet handed to a lane
  std::set<std::string> jobs_;  ///< attached job ids
  int priority_ = 0;            ///< max over attached jobs
  int done_ = 0;
  bool failed_ = false;
  bool abandoned_ = false;      ///< every job detached before completion
  bool stored_ = false;         ///< claimed for the on-disk result cache
  bool onDisk_ = false;         ///< loaded from or written to that cache
  std::string error_;
};

class SweepScheduler {
 public:
  explicit SweepScheduler(SchedulerConfig config);
  ~SweepScheduler();

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  /// Attaches a job to the (new or existing) SpecRun for `spec`.  A
  /// fresh run consults the on-disk result cache first; an existing or
  /// cached run bumps the shared-task telemetry counters — the "two
  /// clients, one computation" path.
  std::shared_ptr<SpecRun> attach(const ExperimentSpec& spec,
                                  int priority, const std::string& jobId);

  /// Detaches a job (cancel / terminal cleanup).  A run with no jobs
  /// left stops dispatching pending tasks; in-flight tasks finish and
  /// their results are kept for a possible future attach.
  void detach(const std::string& jobId,
              const std::shared_ptr<SpecRun>& run);

  /// Stops lanes (joining their threads) and shuts remote workers down.
  /// Idempotent; the destructor calls it.
  void stop();

  const SchedulerConfig& config() const { return config_; }
  int laneCount() const { return static_cast<int>(lanes_.size()); }

  /// Tasks currently pending or in flight across all runs (the
  /// queue-depth gauge's source).
  int backlog() const;

 private:
  friend class SpecRun;

  struct Lane {
    bool remote = false;
    WorkerEndpoint endpoint;
    int fd = -1;
    pid_t pid = -1;
    int deaths = 0;
    std::set<std::uint64_t> sentSpecs;
  };

  struct Work {
    std::shared_ptr<SpecRun> run;
    int index = -1;
  };

  void laneLoop(std::size_t laneIdx);
  bool nextWork(Work& out);
  void completeWork(const Work& work, bool ok, const RunResult& result,
                    const std::string& error);
  bool runRemote(Lane& lane, int slot, const Work& work, std::uint64_t hash,
                 const std::string& payload, RunResult& storage);
  bool ensureLane(Lane& lane, int slot);
  void killLane(Lane& lane);
  /// Drops a completed run with no job attached whose table is on disk
  /// from runs_ (callers holding it keep it alive).  mutex_ held.
  void releaseLocked(const std::shared_ptr<SpecRun>& run);

  SchedulerConfig config_;
  bool cacheEnabled_ = true;
  std::string cacheDir_;
  bool faultsInstalled_ = false;

  mutable std::mutex mutex_;
  std::condition_variable workCv_;          ///< lanes wait for work
  mutable std::condition_variable rowCv_;   ///< row/status waiters
  bool stopping_ = false;

  std::map<std::uint64_t, std::shared_ptr<SpecRun>> runs_;
  std::vector<std::shared_ptr<SpecRun>> active_;  ///< runs with pending work
  std::size_t rrCursor_ = 0;
  int inFlight_ = 0;

  std::vector<Lane> lanes_;
  std::vector<std::thread> threads_;
};

}  // namespace hayat::engine
