// Shared types of the benchmark harness (see ../README.md).
//
// One harness process runs one workload: it sets the workload up, runs
// jobs back to back until its time (or job count) is spent, checks every
// output, and prints a result line that run.py turns into the
// benchmark's JSON.  The workloads call the library only through its
// public API; batch.cpp holds the three engine workloads, served.cpp the
// `hayat serve` one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hayat::engine {
struct ExperimentSpec;
struct SweepTable;
}  // namespace hayat::engine

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Worker threads, connections and processes the load may use: the
/// benchmark machine's core count, fixed so every machine runs the same
/// program.
inline constexpr int kWorkers = 4;

/// The seed whose outputs the canary check falls back to when a run's
/// own seed has no pinned digests.
inline constexpr std::uint64_t kCanarySeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< timed loop length (ignored when jobs > 0)
  int jobs = 0;            ///< > 0: run exactly this many jobs instead
  bool trace = false;      ///< traced run: spans + per-layer metrics
  bool setupOnly = false;  ///< measure cold set-up once and exit
  int record = 0;          ///< > 0: print digests of jobs 0..record-1
  std::string pinsPath;    ///< pinned output digests
  std::string spansPath;   ///< where the traced run writes its spans
  std::string runDir;      ///< scratch directory (cache, job journal)
};

/// splitmix64 over (seed, job, stream): the workload's input seeds.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t job,
                      std::uint64_t stream);

/// FNV-1a 64-bit digest of `bytes` as 16 hex digits.
std::string digestHex(const std::string& bytes);

/// Linear-interpolated percentile, p in [0, 100]; 0 for no values.
double percentile(std::vector<double> values, double p);

/// Pinned output digests, keyed by (workload, seed, job).
class Pins {
 public:
  /// Lines "<workload> <seed> <job> <digest>"; '#' starts a comment.
  /// A missing file leaves the set empty.
  void load(const std::string& path);
  std::optional<std::string> find(const std::string& workload,
                                  std::uint64_t seed, int job) const;

 private:
  std::map<std::string, std::string> digests_;
};

/// One finished job as the client saw it.
struct JobSample {
  int job = 0;              ///< job (spec) number within the seed
  double wallS = 0.0;       ///< submit to last row
  double firstRowS = 0.0;   ///< submit to first row
  double chipYears = 0.0;   ///< chip-years simulated for this job
  bool resubmit = false;    ///< served_jobs: a finished spec sent again
  bool ok = true;
  std::string digest;       ///< canonical output bytes
};

/// Everything one harness process measured.
struct Report {
  std::vector<JobSample> jobs;
  double loopWallS = 0.0;   ///< timed loop, first submit to last row
  double cpuS = 0.0;        ///< user + system CPU of the timed loop
  double stealShare = 0.0;  ///< host steal over the timed loop
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  /// ExperimentEngine::run wall seconds per call (untraced runs).
  std::vector<double> engineRunS;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layer;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

/// Workload entry points.  `setupS` receives the cold set-up time.
bool isBatchWorkload(const std::string& name);
Report runBatch(const Options& options, const Pins& pins, double& setupS);
Report runServed(const Options& options, const Pins& pins, double& setupS);

/// served_jobs' job `job` of `seed`, and the bytes its results stream
/// carries (every run's canonical record, in task order).
hayat::engine::ExperimentSpec servedJobSpec(std::uint64_t seed, int job);
std::string servedCanonicalBytes(const hayat::engine::SweepTable& table);

/// Prints "<workload> <seed> <job> <digest>" for jobs 0..n-1, computed
/// with the in-process engine (served_jobs included: its rows must
/// equal the engine's bytes).
int recordPins(const Options& options);

}  // namespace perfbench
