#include "telemetry/telemetry.hpp"

#include <pthread.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat::telemetry {

namespace {

struct RuntimeState {
  std::mutex mutex;
  bool configured = false;
  bool hooksRegistered = false;
  std::string dir;
  std::string role;
  std::map<std::string, std::uint64_t> workerCounters;
  std::map<std::string, HistogramSnapshot> workerHistograms;
  std::terminate_handler previousTerminate = nullptr;
};

RuntimeState& state() {
  static RuntimeState* s = new RuntimeState();  // never destroyed
  return *s;
}

void atexitFlush() { flush(); }

[[noreturn]] void terminateWithDump() {
  // Dump the flight recorder before dying so the last spans of every
  // thread survive the crash.  Keep this best-effort and re-entrancy
  // safe: no locks beyond what flush() takes, then chain to the previous
  // handler (or abort).
  std::fprintf(stderr,
               "hayat: std::terminate — dumping telemetry flight "
               "recorder\n");
  flush();
  std::terminate_handler previous = nullptr;
  {
    RuntimeState& s = state();
    const std::scoped_lock lock(s.mutex);
    previous = s.previousTerminate;
  }
  if (previous != nullptr) previous();
  std::abort();
}

/// The holdAcrossFork() mutexes, guarded by their own mutex.
struct ForkHeldMutexes {
  std::mutex mutex;
  std::vector<std::mutex*> held;
};

ForkHeldMutexes& forkHeld() {
  static ForkHeldMutexes* f = new ForkHeldMutexes();  // never destroyed
  return *f;
}

void lockAllForFork() {
  ForkHeldMutexes& f = forkHeld();
  f.mutex.lock();
  for (std::mutex* m : f.held) m->lock();
  Registry::global().lockForFork();
  state().mutex.lock();
  lockSpansForFork();
}

void unlockAllAfterFork() {
  unlockSpansAfterFork();
  state().mutex.unlock();
  Registry::global().unlockAfterFork();
  ForkHeldMutexes& f = forkHeld();
  for (auto it = f.held.rbegin(); it != f.held.rend(); ++it) (*it)->unlock();
  f.mutex.unlock();
}

}  // namespace

void installForkHandlers() {
  static const int registered =
      ::pthread_atfork(lockAllForFork, unlockAllAfterFork, unlockAllAfterFork);
  (void)registered;
}

void holdAcrossFork(std::mutex& mutex) {
  ForkHeldMutexes& f = forkHeld();
  const std::scoped_lock lock(f.mutex);
  f.held.push_back(&mutex);
}

void configure(const std::string& dir, const std::string& role) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  {
    RuntimeState& s = state();
    const std::scoped_lock lock(s.mutex);
    s.dir = dir;
    s.role = role.empty() ? "hayat" : role;
    s.configured = true;
    if (!s.hooksRegistered) {
      s.hooksRegistered = true;
      std::atexit(atexitFlush);
      s.previousTerminate = std::set_terminate(terminateWithDump);
    }
  }
  // HAYAT_SPAN_SAMPLE=N keeps 1-in-N spans at sampled sites (epoch
  // windows, lifetime epochs) so long sweeps don't flood the recorders.
  if (const char* sample = std::getenv("HAYAT_SPAN_SAMPLE");
      sample != nullptr && sample[0] != '\0') {
    const long every = std::strtol(sample, nullptr, 10);
    if (every > 0) setSpanSampling(static_cast<std::uint32_t>(every));
  }
  setEnabled(true);
}

bool configured() {
  RuntimeState& s = state();
  const std::scoped_lock lock(s.mutex);
  return s.configured;
}

std::string exportDir() {
  RuntimeState& s = state();
  const std::scoped_lock lock(s.mutex);
  return s.dir;
}

std::string exportRole() {
  RuntimeState& s = state();
  const std::scoped_lock lock(s.mutex);
  return s.role;
}

void configureFromEnv(const std::string& roleIfEnv) {
  const char* dir = std::getenv("HAYAT_TELEMETRY");
  if (dir == nullptr || dir[0] == '\0' || configured()) return;
  configure(dir, roleIfEnv);
}

void mergeWorkerCounters(
    const std::vector<std::pair<std::string, std::uint64_t>>& deltas) {
  RuntimeState& s = state();
  const std::scoped_lock lock(s.mutex);
  for (const auto& [name, delta] : deltas) s.workerCounters[name] += delta;
}

std::map<std::string, std::uint64_t> workerCounters() {
  RuntimeState& s = state();
  const std::scoped_lock lock(s.mutex);
  return s.workerCounters;
}

void mergeWorkerHistograms(const std::vector<HistogramSnapshot>& deltas) {
  RuntimeState& s = state();
  const std::scoped_lock lock(s.mutex);
  for (const HistogramSnapshot& d : deltas) {
    HistogramSnapshot& acc = s.workerHistograms[d.name];
    if (acc.upperBounds != d.upperBounds ||
        acc.counts.size() != d.counts.size()) {
      acc = d;
      acc.name = d.name;
      continue;
    }
    for (std::size_t i = 0; i < d.counts.size(); ++i)
      acc.counts[i] += d.counts[i];
    acc.count += d.count;
    acc.sum += d.sum;
  }
}

std::vector<HistogramSnapshot> workerHistograms() {
  RuntimeState& s = state();
  const std::scoped_lock lock(s.mutex);
  std::vector<HistogramSnapshot> out;
  out.reserve(s.workerHistograms.size());
  for (const auto& [name, h] : s.workerHistograms) {
    out.push_back(h);
    out.back().name = name;
  }
  return out;
}

void resetWorkerCountersForTest() {
  RuntimeState& s = state();
  const std::scoped_lock lock(s.mutex);
  s.workerCounters.clear();
  s.workerHistograms.clear();
}

bool flush() {
  std::string dir, role;
  std::map<std::string, std::uint64_t> remote;
  std::vector<HistogramSnapshot> remoteHists;
  {
    RuntimeState& s = state();
    const std::scoped_lock lock(s.mutex);
    if (!s.configured) return false;
    dir = s.dir;
    role = s.role;
    remote = s.workerCounters;
    remoteHists.reserve(s.workerHistograms.size());
    for (const auto& [name, h] : s.workerHistograms) {
      remoteHists.push_back(h);
      remoteHists.back().name = name;
    }
  }
  const std::string prefix =
      dir + "/" + role + "-" + std::to_string(::getpid());

  bool ok = true;
  {
    std::ofstream out(prefix + ".metrics.prom",
                      std::ios::binary | std::ios::trunc);
    if (out) {
      writePrometheus(out, Registry::global().snapshot(), remote,
                      remoteHists);
      ok = ok && static_cast<bool>(out);
    } else {
      ok = false;
    }
  }
  {
    std::ofstream out(prefix + ".trace.json",
                      std::ios::binary | std::ios::trunc);
    if (out) {
      writeChromeTrace(out, collectAllSpans(), ::getpid());
      ok = ok && static_cast<bool>(out);
    } else {
      ok = false;
    }
  }
  return ok;
}

}  // namespace hayat::telemetry
