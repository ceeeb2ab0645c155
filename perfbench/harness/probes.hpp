// Readings of the library's process-wide accumulators and telemetry
// counters, plus host CPU and memory, taken from outside the program.
// A per-layer metric is the difference of two probes around the timed
// loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/lifetime.hpp"

namespace perfbench {

struct Probe {
  hayat::LifetimePhaseNanos phases;   ///< aging / policy / thermal / total
  std::uint64_t baselineNs = 0;       ///< predictorBaselineNanos()
  std::uint64_t memoHits = 0;         ///< transientMemoHits()
  std::uint64_t memoMisses = 0;       ///< transientMemoMisses()
  std::uint64_t stepsSkipped = 0;     ///< epochStepsSkipped()
  std::uint64_t stepAllocs = 0;       ///< epochStepLoopAllocs()
  /// Telemetry registry counters (they advance only while telemetry is
  /// enabled, i.e. in traced runs).
  std::map<std::string, std::uint64_t> counters;
  double selfCpuS = 0.0;              ///< user + system, this process
  /// user + system of each live child process (the serve worker fleet).
  std::map<int, double> childCpuS;
  /// Machine-wide CPU ticks from /proc/stat: all, and stolen by the
  /// hypervisor (time this machine's CPUs waited for the host).
  std::uint64_t machineTicks = 0;
  std::uint64_t stealTicks = 0;

  std::uint64_t counter(const std::string& name) const;
};

Probe takeProbe();

/// Number of live child processes (the serve worker fleet).
int liveChildren();

/// CPU seconds the children spent between two probes (a child born in
/// between counts from zero).
double childCpuDelta(const Probe& before, const Probe& after);

/// Share of the machine's CPU time the hypervisor stole between two
/// probes — wall-time metrics degrade with it, CPU-time metrics do not.
double stealShare(const Probe& before, const Probe& after);

/// Peak resident set of this process [MB].
double peakRssMb();

}  // namespace perfbench
