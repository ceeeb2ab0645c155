#include "probes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "runtime/epoch.hpp"
#include "runtime/thermal_predictor.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {
namespace {

double timevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Live children of this process and their user + system CPU, read from
/// /proc/<pid>/stat (fields 4 = ppid, 14 = utime, 15 = stime).
std::map<int, double> childCpu() {
  std::map<int, double> out;
  const long self = static_cast<long>(::getpid());
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") !=
                            std::string::npos)
      continue;
    std::ifstream in(entry.path() / "stat");
    std::string text;
    if (!std::getline(in, text)) continue;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    long ppid = 0;
    double utime = 0.0, stime = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 4) ppid = std::atol(field.c_str());
      if (i == 14) utime = std::atof(field.c_str());
      if (i == 15) stime = std::atof(field.c_str());
    }
    if (ppid == self) out[std::atoi(name.c_str())] = (utime + stime) / tick;
  }
  return out;
}

/// Sums the first "cpu" line of /proc/stat; `steal` gets its 8th field.
std::uint64_t machineTicks(std::uint64_t& steal) {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t total = 0, value = 0;
  for (int field = 1; field <= 8 && in >> value; ++field) {
    total += value;
    if (field == 8) steal = value;
  }
  return total;
}

}  // namespace

std::uint64_t Probe::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Probe takeProbe() {
  Probe p;
  p.phases = hayat::lifetimePhaseNanos();
  p.baselineNs = hayat::predictorBaselineNanos();
  p.memoHits = hayat::transientMemoHits();
  p.memoMisses = hayat::transientMemoMisses();
  p.stepsSkipped = hayat::epochStepsSkipped();
  p.stepAllocs = hayat::epochStepLoopAllocs();
  for (const auto& [name, value] :
       hayat::telemetry::Registry::global().snapshot().counters)
    p.counters[name] = value;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  p.selfCpuS = timevalSeconds(usage.ru_utime) + timevalSeconds(usage.ru_stime);
  p.childCpuS = childCpu();
  p.machineTicks = machineTicks(p.stealTicks);
  return p;
}

double stealShare(const Probe& before, const Probe& after) {
  const std::uint64_t all = after.machineTicks - before.machineTicks;
  return all == 0 ? 0.0
                  : static_cast<double>(after.stealTicks - before.stealTicks) /
                        static_cast<double>(all);
}

int liveChildren() { return static_cast<int>(childCpu().size()); }

double childCpuDelta(const Probe& before, const Probe& after) {
  double total = 0.0;
  for (const auto& [pid, cpu] : after.childCpuS) {
    const auto it = before.childCpuS.find(pid);
    total += cpu - (it == before.childCpuS.end() ? 0.0 : it->second);
  }
  return total;
}

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
