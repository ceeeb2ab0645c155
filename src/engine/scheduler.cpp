#include "engine/scheduler.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "engine/fault.hpp"
#include "engine/result_cache.hpp"
#include "engine/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace hayat::engine {

namespace {

telemetry::Counter& laneDeathsTotal =
    telemetry::Registry::global().counter("hayat_serve_lane_deaths_total");
telemetry::Counter& laneRespawnsTotal =
    telemetry::Registry::global().counter("hayat_serve_lane_respawns_total");
telemetry::Counter& runsAbandonedTotal =
    telemetry::Registry::global().counter("hayat_serve_runs_abandoned_total");
telemetry::Counter& runsFailedTotal =
    telemetry::Registry::global().counter("hayat_serve_runs_failed_total");
telemetry::Counter& runsReleasedTotal =
    telemetry::Registry::global().counter("hayat_serve_runs_released_total");
telemetry::Counter& sharedTasksTotal =
    telemetry::Registry::global().counter("hayat_serve_shared_tasks_total");
telemetry::Counter& tableCacheHitsTotal =
    telemetry::Registry::global().counter("hayat_serve_table_cache_hits_total");
telemetry::Counter& tableStoresTotal = telemetry::Registry::global().counter(
    "hayat_serve_table_cache_stores_total");
telemetry::Counter& tasksExecutedTotal =
    telemetry::Registry::global().counter("hayat_serve_tasks_executed_total");
telemetry::Counter& localFallbackTotal = telemetry::Registry::global().counter(
    "hayat_serve_tasks_local_fallback_total");
telemetry::Counter& tasksLocalTotal =
    telemetry::Registry::global().counter("hayat_serve_tasks_local_total");
telemetry::Counter& tasksRemoteTotal =
    telemetry::Registry::global().counter("hayat_serve_tasks_remote_total");

std::string canonicalRow(const RunResult& result) {
  std::ostringstream out;
  writeRunResult(out, result);
  return out.str();
}

}  // namespace

// ------------------------------------------------------------- SpecRun

int SpecRun::completedTasks() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  return done_;
}

bool SpecRun::complete() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  return done_ == static_cast<int>(cells_.size());
}

bool SpecRun::failed() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  return failed_;
}

std::string SpecRun::error() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  return error_;
}

std::optional<std::string> SpecRun::waitRow(int index, int timeoutMs) const {
  if (index < 0 || index >= taskCount()) return std::nullopt;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  std::unique_lock<std::mutex> lock(owner_->mutex_);
  const auto& cell = cells_[static_cast<std::size_t>(index)];
  while (cell.state != CellState::Done) {
    if (failed_ || abandoned_ || owner_->stopping_) return std::nullopt;
    if (owner_->rowCv_.wait_until(lock, deadline) ==
        std::cv_status::timeout)
      return std::nullopt;
  }
  return cell.row;
}

SweepTable SpecRun::table() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  SweepTable out;
  out.runs.reserve(cells_.size());
  for (const Cell& cell : cells_) out.runs.push_back(cell.result);
  return out;
}

// ------------------------------------------------------ SweepScheduler

SweepScheduler::SweepScheduler(SchedulerConfig config)
    : config_(std::move(config)),
      cacheEnabled_(resolveCacheEnabled(config_.cache)),
      cacheDir_(resolveCacheDir(config_.cacheDir)) {
  // The coordinator side of HAYAT_FAULT_PLAN (fault.hpp), installed
  // before any lane writes so a fixed plan names the same frames on
  // every run.  Worker rules reach the workers through the lane index
  // (spawnWorker).
  if (const char* plan = std::getenv("HAYAT_FAULT_PLAN"); plan && *plan) {
    installCoordinatorFaults(parseFaultPlan(plan));
    faultsInstalled_ = true;
  }

  // One lane per endpoint slot; an empty dispatch spec means local
  // compute lanes only.
  if (!config_.dispatch.empty()) {
    ignoreSigpipe();
    for (const WorkerEndpoint& endpoint :
         parseWorkerSpec(config_.dispatch)) {
      const int slots =
          endpoint.kind == WorkerEndpoint::Kind::Tcp ? 1 : endpoint.count;
      for (int i = 0; i < slots; ++i) {
        Lane lane;
        lane.remote = true;
        lane.endpoint = endpoint;
        lanes_.push_back(std::move(lane));
      }
    }
  }
  if (lanes_.empty()) {
    const int n = std::max(1, config_.localWorkers);
    lanes_.resize(static_cast<std::size_t>(n));
  }
  threads_.reserve(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    threads_.emplace_back([this, i] { laneLoop(i); });
}

SweepScheduler::~SweepScheduler() { stop(); }

void SweepScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  workCv_.notify_all();
  rowCv_.notify_all();
  for (std::thread& t : threads_) t.join();
  for (Lane& lane : lanes_) {
    if (lane.fd >= 0) writeMessage(lane.fd, MsgType::Shutdown, "");
    killLane(lane);
  }
  if (faultsInstalled_) clearCoordinatorFaults();
}

int SweepScheduler::backlog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int pending = inFlight_;
  for (const auto& run : active_)
    pending += static_cast<int>(run->pending_.size());
  return pending;
}

std::shared_ptr<SpecRun> SweepScheduler::attach(const ExperimentSpec& spec,
                                                int priority,
                                                const std::string& jobId) {
  const std::uint64_t hash = specHash(spec);

  // Fast path: an existing run (live, completed, or abandoned) for this
  // hash — the job shares every task.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = runs_.find(hash);
    if (it != runs_.end() && !it->second->failed_) {
      const std::shared_ptr<SpecRun>& run = it->second;
      run->jobs_.insert(jobId);
      run->priority_ = std::max(run->priority_, priority);
      sharedTasksTotal.add(static_cast<std::uint64_t>(run->taskCount()));
      if (run->abandoned_) {
        // Resurrect: re-queue every cell the abandonment parked.
        run->abandoned_ = false;
        run->pending_.clear();
        for (std::size_t i = 0; i < run->cells_.size(); ++i)
          if (run->cells_[i].state == SpecRun::CellState::Pending)
            run->pending_.push_back(static_cast<int>(i));
        if (!run->pending_.empty() &&
            std::find(active_.begin(), active_.end(), run) == active_.end())
          active_.push_back(run);
        workCv_.notify_all();
      }
      return run;
    }
    if (it != runs_.end()) runs_.erase(it);  // failed: retry from scratch
  }

  // Slow path: build a new run.  The disk-cache probe does file I/O, so
  // it happens outside the lock; a concurrent attach of the same hash is
  // resolved by re-checking under the lock before publishing.
  auto run = std::shared_ptr<SpecRun>(new SpecRun(this));
  run->spec_ = spec;
  run->hash_ = hash;
  run->wirePayload_ = encodeSpec(spec);
  run->tasks_ = ExperimentEngine::expand(spec);
  run->cells_.resize(run->tasks_.size());
  run->jobs_.insert(jobId);
  run->priority_ = priority;

  bool cached = false;
  if (cacheEnabled_) {
    if (auto table = loadCachedTable(cacheDir_, spec)) {
      if (table->runs.size() == run->tasks_.size()) {
        for (std::size_t i = 0; i < table->runs.size(); ++i) {
          SpecRun::Cell& cell = run->cells_[i];
          cell.result = table->runs[i];
          cell.row = canonicalRow(cell.result);
          cell.state = SpecRun::CellState::Done;
        }
        run->done_ = run->taskCount();
        run->stored_ = true;  // it came from the cache; no need to restore
        run->onDisk_ = true;
        cached = true;
      }
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = runs_.find(hash);
  if (it != runs_.end() && !it->second->failed_) {
    // Lost the race; join the winner.
    it->second->jobs_.insert(jobId);
    it->second->priority_ = std::max(it->second->priority_, priority);
    sharedTasksTotal.add(static_cast<std::uint64_t>(it->second->taskCount()));
    return it->second;
  }
  runs_[hash] = run;
  if (cached) {
    tableCacheHitsTotal.add();
    sharedTasksTotal.add(static_cast<std::uint64_t>(run->taskCount()));
    rowCv_.notify_all();
  } else {
    for (int i = 0; i < run->taskCount(); ++i) run->pending_.push_back(i);
    active_.push_back(run);
    workCv_.notify_all();
  }
  return run;
}

void SweepScheduler::detach(const std::string& jobId,
                            const std::shared_ptr<SpecRun>& run) {
  if (!run) return;
  std::lock_guard<std::mutex> lock(mutex_);
  run->jobs_.erase(jobId);
  if (!run->jobs_.empty()) return;
  if (run->done_ == static_cast<int>(run->cells_.size())) {
    releaseLocked(run);
    return;
  }
  // Last job gone mid-run: park the pending tasks.  In-flight tasks are
  // allowed to finish (their results stay shareable); nothing new is
  // dispatched.
  run->abandoned_ = true;
  run->pending_.clear();
  active_.erase(std::remove(active_.begin(), active_.end(), run),
                active_.end());
  runsAbandonedTotal.add();
  rowCv_.notify_all();
}

bool SweepScheduler::nextWork(Work& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_) return false;
    // Highest priority level with pending work, round-robin inside it.
    int best = 0;
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const auto& run = active_[i];
      if (run->pending_.empty()) continue;
      if (eligible.empty() || run->priority_ > best) {
        if (!eligible.empty() && run->priority_ > best) eligible.clear();
        best = run->priority_;
        eligible.push_back(i);
      } else if (run->priority_ == best) {
        eligible.push_back(i);
      }
    }
    if (!eligible.empty()) {
      const std::size_t pick = eligible[rrCursor_++ % eligible.size()];
      const std::shared_ptr<SpecRun>& run = active_[pick];
      out.run = run;
      out.index = run->pending_.front();
      run->pending_.pop_front();
      run->cells_[static_cast<std::size_t>(out.index)].state =
          SpecRun::CellState::InFlight;
      ++inFlight_;
      if (run->pending_.empty())
        active_.erase(active_.begin() +
                      static_cast<std::ptrdiff_t>(pick));
      return true;
    }
    workCv_.wait(lock);
  }
}

void SweepScheduler::completeWork(const Work& work, bool ok,
                                  const RunResult& result,
                                  const std::string& error) {
  bool storeNow = false;
  SweepTable table;
  ExperimentSpec spec;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
    SpecRun& run = *work.run;
    SpecRun::Cell& cell = run.cells_[static_cast<std::size_t>(work.index)];
    if (!ok) {
      // A task that fails even locally is deterministic: the whole run
      // fails loudly rather than hanging its jobs forever.
      run.failed_ = true;
      run.error_ = error;
      run.pending_.clear();
      active_.erase(std::remove(active_.begin(), active_.end(), work.run),
                    active_.end());
      runsFailedTotal.add();
      rowCv_.notify_all();
      return;
    }
    if (cell.state != SpecRun::CellState::Done) {
      cell.result = result;
      cell.row = canonicalRow(result);
      cell.state = SpecRun::CellState::Done;
      ++run.done_;
      tasksExecutedTotal.add();
    }
    if (run.done_ == static_cast<int>(run.cells_.size()) && !run.stored_ &&
        cacheEnabled_ && !run.failed_) {
      run.stored_ = true;
      storeNow = true;
      spec = run.spec_;
      SweepTable merged;
      merged.runs.reserve(run.cells_.size());
      for (const SpecRun::Cell& c : run.cells_)
        merged.runs.push_back(c.result);
      table = std::move(merged);
    }
    rowCv_.notify_all();
  }
  if (storeNow) {
    // File I/O outside the lock; the cache is shared with one-shot CLI
    // sweeps and future daemon incarnations.
    if (storeCachedTable(cacheDir_, spec, table)) {
      tableStoresTotal.add();
      std::lock_guard<std::mutex> lock(mutex_);
      work.run->onDisk_ = true;
      if (work.run->jobs_.empty()) releaseLocked(work.run);
    }
  }
}

void SweepScheduler::releaseLocked(const std::shared_ptr<SpecRun>& run) {
  if (!run->onDisk_ || !run->jobs_.empty() || run->failed_ ||
      run->done_ != static_cast<int>(run->cells_.size()))
    return;
  const auto it = runs_.find(run->hash_);
  if (it != runs_.end() && it->second == run) {
    runs_.erase(it);
    runsReleasedTotal.add();
  }
}

void SweepScheduler::laneLoop(std::size_t laneIdx) {
  Lane& lane = lanes_[laneIdx];
  Work work;
  while (nextWork(work)) {
    std::uint64_t hash = 0;
    std::string payload;
    RunTask task;
    std::uint64_t populationSeed = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hash = work.run->hash_;
      payload = work.run->wirePayload_;
      task = work.run->tasks_[static_cast<std::size_t>(work.index)];
      populationSeed = work.run->spec_.populationSeed;
    }

    RunResult storage;
    bool ok = false;
    std::string error;
    if (lane.remote && runRemote(lane, static_cast<int>(laneIdx), work, hash,
                                 payload, storage)) {
      ok = true;
      tasksRemoteTotal.add();
    } else {
      try {
        storage = ExperimentEngine::runTask(task, populationSeed);
        ok = true;
        if (lane.remote) localFallbackTotal.add();
        tasksLocalTotal.add();
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    completeWork(work, ok, storage, error);
    work.run.reset();
  }
}

bool SweepScheduler::ensureLane(Lane& lane, int slot) {
  if (lane.fd >= 0) return true;
  if (lane.deaths > config_.maxLaneRespawns) return false;
  lane.sentSpecs.clear();
  lane.fd = spawnWorker(lane.endpoint, slot, lane.pid);
  if (lane.fd < 0) {
    ++lane.deaths;
    return false;
  }
  if (lane.deaths > 0) laneRespawnsTotal.add();
  return true;
}

void SweepScheduler::killLane(Lane& lane) {
  if (lane.fd >= 0) {
    ::close(lane.fd);
    lane.fd = -1;
  }
  if (lane.pid > 0) {
    ::kill(lane.pid, SIGKILL);
    int status = 0;
    ::waitpid(lane.pid, &status, 0);
    lane.pid = -1;
  }
}

bool SweepScheduler::runRemote(Lane& lane, int slot, const Work& work,
                               std::uint64_t hash,
                               const std::string& payload,
                               RunResult& storage) {
  if (!ensureLane(lane, slot)) return false;
  const auto fail = [&] {
    killLane(lane);
    ++lane.deaths;
    laneDeathsTotal.add();
    return false;
  };
  if (lane.sentSpecs.insert(hash).second) {
    // TelemetryOn follows the connection's first Spec (it is not part of
    // the spec, so the spec hash is the same with telemetry on or off).
    const bool handshake = lane.sentSpecs.size() == 1;
    if (!writeMessage(lane.fd, MsgType::Spec, payload) ||
        (handshake && telemetry::enabled() &&
         !writeMessage(lane.fd, MsgType::TelemetryOn, "")))
      return fail();
  }
  if (!writeMessage(lane.fd, MsgType::Task, encodeTask(work.index, hash)))
    return fail();

  const int timeoutMs =
      std::max(1, static_cast<int>(config_.taskTimeoutSeconds * 1000.0));
  Message msg;
  bool timedOut = false;
  if (!readMessage(lane.fd, msg, timeoutMs, timedOut)) return fail();
  if (msg.type == MsgType::TaskError) return false;  // run locally
  if (msg.type != MsgType::Result) return fail();
  int index = -1;
  telemetry::MetricDeltas deltas;
  try {
    decodeResult(msg.payload, index, storage, &deltas);
  } catch (const std::exception&) {
    return fail();
  }
  if (index != work.index) return fail();
  if (!deltas.counters.empty()) telemetry::mergeWorkerCounters(deltas.counters);
  if (!deltas.histograms.empty())
    telemetry::mergeWorkerHistograms(deltas.histograms);
  return true;
}

}  // namespace hayat::engine
