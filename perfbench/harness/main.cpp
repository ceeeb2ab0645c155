// perfbench_hayat — one run of one benchmark workload.
//
//   perfbench_hayat --workload <name> --seed <n> [--seconds <s> | --jobs <n>]
//                   [--trace] [--setup-only] [--record <n>]
//                   [--pins <file>] [--spans <file>] --run-dir <dir>
//
// Prints human-readable lines, then one JSON line with what the run
// measured; run.py turns that into the benchmark's result.  Exit code 0
// means the run completed (its checks may still have failed; see
// "failed" in the JSON), 2 means bad arguments.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "harness.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t job,
                      std::uint64_t stream) {
  return splitmix64(splitmix64(splitmix64(seed) ^ job) ^ stream);
}

std::string digestHex(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Pins::load(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, job, digest;
    if (fields >> workload >> seed >> job >> digest)
      digests_[workload + " " + seed + " " + job] = digest;
  }
}

std::optional<std::string> Pins::find(const std::string& workload,
                                      std::uint64_t seed, int job) const {
  const auto it = digests_.find(workload + " " + std::to_string(seed) + " " +
                                std::to_string(job));
  if (it == digests_.end()) return std::nullopt;
  return it->second;
}

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench_hayat: %s\n", why);
  return 2;
}

/// The end-to-end metrics a run measures itself (run.py adds setup_s
/// from separate set-up processes).
std::map<std::string, double> endToEnd(const Report& r) {
  std::vector<double> wall, firstRow;
  double chipYears = 0.0;
  for (const JobSample& j : r.jobs) {
    wall.push_back(j.wallS);
    firstRow.push_back(j.firstRowS);
    chipYears += j.chipYears;
  }
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  return {
      {"chip_years_per_s", per(chipYears, r.loopWallS)},
      {"cpu_s_per_chip_year", per(r.cpuS, chipYears)},
      {"peak_rss_mb", peakRssMb()},
      {"job_p50_s", percentile(wall, 50)},
      {"job_p90_s", percentile(wall, 90)},
      {"first_row_p50_s", percentile(firstRow, 50)},
      {"jobs_per_s", per(static_cast<double>(r.jobs.size()), r.loopWallS)},
  };
}

int run(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--jobs") o.jobs = std::stoi(value());
    else if (arg == "--record") o.record = std::stoi(value());
    else if (arg == "--pins") o.pinsPath = value();
    else if (arg == "--spans") o.spansPath = value();
    else if (arg == "--run-dir") o.runDir = value();
    else if (arg == "--trace") o.trace = true;
    else if (arg == "--setup-only") o.setupOnly = true;
    else return usage(("unknown argument " + arg).c_str());
  }
  const bool batch = isBatchWorkload(o.workload);
  if (!batch && o.workload != "served_jobs")
    return usage(("unknown workload '" + o.workload + "'").c_str());
  if (o.record > 0) return recordPins(o);
  if (o.runDir.empty()) return usage("--run-dir is required");

  Pins pins;
  pins.load(o.pinsPath);
  double setupS = 0.0;
  const Report r =
      batch ? runBatch(o, pins, setupS) : runServed(o, pins, setupS);

  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  if (!r.jobs.empty()) {
    std::vector<double> wall;
    for (const JobSample& j : r.jobs) wall.push_back(j.wallS);
    std::printf("job wall [s] over %zu jobs: min %.4f p25 %.4f p50 %.4f "
                "p75 %.4f p90 %.4f max %.4f; host steal %.1f %% of CPU time\n",
                wall.size(), percentile(wall, 0), percentile(wall, 25),
                percentile(wall, 50), percentile(wall, 75),
                percentile(wall, 90), percentile(wall, 100),
                100.0 * r.stealShare);
  }
  for (const std::string& e : r.errors)
    std::printf("FAILED: %s\n", e.c_str());
  std::string json = "{\"workload\":" + jsonString(o.workload) +
                     ",\"setup_s\":" + jsonNumber(setupS) +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed);
  if (!o.setupOnly) {
    json += ",\"jobs\":" + std::to_string(r.jobs.size()) +
            ",\"loop_wall_s\":" + jsonNumber(r.loopWallS) +
            ",\"engine_run_s\":" + jsonNumber(percentile(r.engineRunS, 50));
    const auto object = [](const std::map<std::string, double>& m) {
      std::string out = "{";
      for (const auto& [name, v] : m)
        out += (out.size() > 1 ? "," : "") + jsonString(name) + ":" +
               jsonNumber(v);
      return out + "}";
    };
    json += ",\"metrics\":" + object(endToEnd(r)) +
            ",\"layer\":" + object(r.layer) + ",\"digests\":{";
    std::map<int, std::string> digests;  // a re-submitted job appears once
    for (const JobSample& j : r.jobs)
      if (!j.digest.empty()) digests[j.job] = j.digest;
    for (const auto& [job, digest] : digests)
      json += (job == digests.begin()->first ? "" : ",") +
              jsonString(std::to_string(job)) + ":" + jsonString(digest);
    json += "}";
  }
  std::printf("%s}\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_hayat: %s\n", e.what());
    return 1;
  }
}
