#include "engine/result_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "telemetry/metrics.hpp"

namespace hayat::engine {

namespace {

constexpr const char* kMagicPrefix = "# hayat-result-cache v";

telemetry::Counter& hitsTotal =
    telemetry::Registry::global().counter("hayat_result_cache_hits_total");
telemetry::Counter& missesTotal =
    telemetry::Registry::global().counter("hayat_result_cache_misses_total");
telemetry::Counter& orphansDroppedTotal = telemetry::Registry::global().counter(
    "hayat_result_cache_orphans_dropped_total");
telemetry::Counter& storesTotal =
    telemetry::Registry::global().counter("hayat_result_cache_stores_total");
telemetry::Counter& pushStoredTotal = telemetry::Registry::global().counter(
    "hayat_result_cache_push_stored_total");
telemetry::Counter& evictedAgeTotal = telemetry::Registry::global().counter(
    "hayat_result_cache_evicted_age_total");
telemetry::Counter& evictedSizeTotal = telemetry::Registry::global().counter(
    "hayat_result_cache_evicted_size_total");
telemetry::Counter& evictedBytesTotal = telemetry::Registry::global().counter(
    "hayat_result_cache_evicted_bytes_total");

std::string magicLine() {
  return kMagicPrefix + std::to_string(kCacheFormatVersion);
}

std::string fmt(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Splits one CSV line after its `tag,` prefix; returns false if the tag
/// does not match.
bool fields(const std::string& line, const char* tag,
            std::vector<std::string>& out) {
  const std::string prefix = std::string(tag) + ',';
  if (line.compare(0, prefix.size(), prefix) != 0) return false;
  out.clear();
  std::size_t start = prefix.size();
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(line.substr(start));
      return true;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

bool readRunResultImpl(std::istream& in, RunResult& r) {
  std::vector<std::string> f;
  std::string line;
  if (!std::getline(in, line) || !fields(line, "run", f) || f.size() < 5)
    return false;
  r.chip = std::stoi(f[0]);
  r.repetition = std::stoi(f[1]);
  r.darkFraction = std::stod(f[2]);
  r.ambient = std::stod(f[3]);
  // The policy label may itself contain commas (multi-param labels), so
  // rejoin everything after the fixed columns.
  r.policy = f[4];
  for (std::size_t i = 5; i < f.size(); ++i) r.policy += ',' + f[i];

  LifetimeResult& l = r.lifetime;
  if (!std::getline(in, line) || !fields(line, "horizon", f) || f.size() != 1)
    return false;
  l.horizon = std::stod(f[0]);

  if (!std::getline(in, line) || !fields(line, "cores", f) || f.size() != 1)
    return false;
  const long cores = std::stol(f[0]);
  l.initialFmax.clear();
  l.finalFmax.clear();
  l.coreDamage.clear();
  for (long i = 0; i < cores; ++i) {
    if (!std::getline(in, line) || !fields(line, "core", f) || f.size() != 3)
      return false;
    l.initialFmax.push_back(std::stod(f[0]));
    l.finalFmax.push_back(std::stod(f[1]));
    l.coreDamage.push_back(std::stod(f[2]));
  }

  if (!std::getline(in, line) || !fields(line, "epochs", f) || f.size() != 1)
    return false;
  const long epochs = std::stol(f[0]);
  l.epochs.clear();
  for (long i = 0; i < epochs; ++i) {
    if (!std::getline(in, line) || !fields(line, "epoch", f) ||
        f.size() != 13)
      return false;
    EpochRecord e;
    e.startYear = std::stod(f[0]);
    e.dtmEvents = std::stol(f[1]);
    e.migrations = std::stol(f[2]);
    e.throttles = std::stol(f[3]);
    e.chipPeak = std::stod(f[4]);
    e.chipTimeAverage = std::stod(f[5]);
    e.throttledSteps = std::stoi(f[6]);
    e.totalSteps = std::stoi(f[7]);
    e.chipFmax = std::stod(f[8]);
    e.averageFmax = std::stod(f[9]);
    e.minHealth = std::stod(f[10]);
    e.averageHealth = std::stod(f[11]);
    e.throughputRatio = std::stod(f[12]);
    l.epochs.push_back(e);
  }

  // Failure section (format v4): always present so multi-run files stay
  // unambiguous; "none" marks a point-MTTF run.
  if (!std::getline(in, line) || !fields(line, "failure", f)) return false;
  l.distribution.reset();
  if (f.size() == 1 && f[0] == "none") return true;
  if (f.size() != 4) return false;
  LifetimeDistribution d;
  const long samples = std::stol(f[0]);
  d.emKills = std::stol(f[1]);
  d.tddbKills = std::stol(f[2]);
  const long units = std::stol(f[3]);
  for (long i = 0; i < units; ++i) {
    if (!std::getline(in, line) || !fields(line, "funit", f) || f.size() != 4)
      return false;
    UnitFailureStats u;
    u.name = f[0];
    u.kind = static_cast<UnitKind>(std::stoi(f[1]));
    u.kills = std::stol(f[2]);
    u.deaths = std::stol(f[3]);
    d.units.push_back(std::move(u));
  }
  for (long i = 0; i < samples; ++i) {
    if (!std::getline(in, line) || !fields(line, "fsample", f) ||
        f.size() != 1)
      return false;
    d.systemLifetimes.push_back(std::stod(f[0]));
  }
  l.distribution = std::move(d);
  return true;
}

}  // namespace

std::string resolveCacheDir(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("HAYAT_CACHE_DIR"))
    if (*env) return env;
  return "hayat_cache";
}

bool resolveCacheEnabled(bool configured) {
  return configured && std::getenv("HAYAT_NO_CACHE") == nullptr;
}

void writeRunResult(std::ostream& out, const RunResult& r) {
  out << "run," << r.chip << ',' << r.repetition << ','
      << fmt(r.darkFraction) << ',' << fmt(r.ambient) << ',' << r.policy
      << '\n';
  const LifetimeResult& l = r.lifetime;
  out << "horizon," << fmt(l.horizon) << '\n';
  out << "cores," << l.initialFmax.size() << '\n';
  for (std::size_t i = 0; i < l.initialFmax.size(); ++i) {
    out << "core," << fmt(l.initialFmax[i]) << ',' << fmt(l.finalFmax[i])
        << ',' << fmt(i < l.coreDamage.size() ? l.coreDamage[i] : 0.0)
        << '\n';
  }
  out << "epochs," << l.epochs.size() << '\n';
  for (const EpochRecord& e : l.epochs) {
    out << "epoch," << fmt(e.startYear) << ',' << e.dtmEvents << ','
        << e.migrations << ',' << e.throttles << ',' << fmt(e.chipPeak)
        << ',' << fmt(e.chipTimeAverage) << ',' << e.throttledSteps << ','
        << e.totalSteps << ',' << fmt(e.chipFmax) << ','
        << fmt(e.averageFmax) << ',' << fmt(e.minHealth) << ','
        << fmt(e.averageHealth) << ',' << fmt(e.throughputRatio) << '\n';
  }
  if (!l.distribution.has_value()) {
    out << "failure,none\n";
    return;
  }
  const LifetimeDistribution& d = *l.distribution;
  out << "failure," << d.systemLifetimes.size() << ',' << d.emKills << ','
      << d.tddbKills << ',' << d.units.size() << '\n';
  for (const UnitFailureStats& u : d.units)
    out << "funit," << u.name << ',' << static_cast<int>(u.kind) << ','
        << u.kills << ',' << u.deaths << '\n';
  for (const Years life : d.systemLifetimes)
    out << "fsample," << fmt(life) << '\n';
}

bool readRunResult(std::istream& in, RunResult& result) {
  try {
    return readRunResultImpl(in, result);
  } catch (const std::exception&) {
    return false;  // stoi/stod parse failure => corrupt record
  }
}

std::string cacheEntryPath(const std::string& dir, const std::string& name,
                           std::uint64_t hash) {
  char hashHex[32];
  std::snprintf(hashHex, sizeof(hashHex), "%016" PRIx64, hash);
  std::string safeName;
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    safeName += safe ? c : '_';
  }
  if (safeName.empty()) safeName = "experiment";
  return dir + "/" + safeName + "-" + hashHex + ".csv";
}

std::string cachePath(const std::string& dir, const ExperimentSpec& spec) {
  return cacheEntryPath(dir, spec.name, specHash(spec));
}

bool storePushedCacheEntry(const std::string& dir, const std::string& name,
                           std::uint64_t hash,
                           const std::string& fileBytes) {
  // The push already crossed decodeCachePush's version check, but the
  // bytes themselves carry the authoritative stamp — reject anything
  // that does not open with this build's magic line.
  const std::string magic = magicLine() + '\n';
  if (fileBytes.compare(0, magic.size(), magic) != 0) return false;

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  const std::string path = cacheEntryPath(dir, name, hash);
  const std::string tmp = path + ".push.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(fileBytes.data(),
              static_cast<std::streamsize>(fileBytes.size()));
    if (!out) return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (!ec && telemetry::enabled()) pushStoredTotal.add();
  return !ec;
}

std::optional<SweepTable> loadCachedTable(const std::string& dir,
                                          const ExperimentSpec& spec) {
  const auto miss = []() -> std::optional<SweepTable> {
    if (telemetry::enabled()) missesTotal.add();
    return std::nullopt;
  };

  const std::string path = cachePath(dir, spec);
  std::ifstream in(path);
  if (!in) return miss();

  // Any file that exists but cannot serve this spec — stale format
  // version, signature mismatch (hash collision or drift), or corruption
  // — is an orphan: nothing will ever read it, so delete it on the way
  // out instead of letting the cache directory grow forever.
  const auto orphaned = [&]() -> std::optional<SweepTable> {
    in.close();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::fprintf(stderr, "[engine] dropped stale cache entry %s\n",
                 path.c_str());
    if (telemetry::enabled()) orphansDroppedTotal.add();
    return miss();
  };

  const auto hit = [&](SweepTable table) -> std::optional<SweepTable> {
    if (telemetry::enabled()) hitsTotal.add();
    return table;
  };

  std::string line;
  if (!std::getline(in, line) || line != magicLine()) return orphaned();

  // The embedded signature must match exactly — this catches both hash
  // collisions and format drift.
  const std::string expected = specSignature(spec);
  std::vector<std::string> f;
  try {
    if (!std::getline(in, line) || !fields(line, "signature-lines", f) ||
        f.size() != 1)
      return orphaned();
    const long sigLines = std::stol(f[0]);
    std::string sig;
    for (long i = 0; i < sigLines; ++i) {
      if (!std::getline(in, line) || line.compare(0, 2, "# ") != 0)
        return orphaned();
      sig += line.substr(2) + '\n';
    }
    if (sig != expected) return orphaned();

    if (!std::getline(in, line) || !fields(line, "runs", f) || f.size() != 1)
      return orphaned();
    const long count = std::stol(f[0]);

    SweepTable table;
    for (long i = 0; i < count; ++i) {
      RunResult r;
      if (!readRunResult(in, r)) return orphaned();
      table.runs.push_back(std::move(r));
    }
    return hit(std::move(table));
  } catch (const std::exception&) {
    return orphaned();  // stol parse failure => corrupt header
  }
}

bool storeCachedTable(const std::string& dir, const ExperimentSpec& spec,
                      const SweepTable& table) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  const std::string path = cachePath(dir, spec);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << magicLine() << '\n';
    const std::string sig = specSignature(spec);
    long lines = 0;
    for (const char c : sig)
      if (c == '\n') ++lines;
    out << "signature-lines," << lines << '\n';
    std::istringstream sigStream(sig);
    std::string sigLine;
    while (std::getline(sigStream, sigLine)) out << "# " << sigLine << '\n';
    out << "runs," << table.runs.size() << '\n';
    for (const RunResult& r : table.runs) writeRunResult(out, r);
    if (!out) return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (!ec && telemetry::enabled()) storesTotal.add();
  return !ec;
}

CacheEvictionStats evictResultCache(const std::string& dir,
                                    std::uint64_t maxBytes,
                                    double maxAgeSeconds) {
  namespace fs = std::filesystem;
  CacheEvictionStats stats;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) return stats;

  struct Entry {
    fs::path path;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!item.is_regular_file(ec) || ec) continue;
    if (item.path().extension() != ".csv") continue;  // skip .tmp etc.
    Entry e;
    e.path = item.path();
    e.bytes = static_cast<std::uint64_t>(item.file_size(ec));
    if (ec) continue;
    e.mtime = item.last_write_time(ec);
    if (ec) continue;
    entries.push_back(std::move(e));
  }

  stats.scannedFiles = entries.size();
  std::uint64_t totalBytes = 0;
  for (const Entry& e : entries) totalBytes += e.bytes;
  stats.scannedBytes = totalBytes;

  const auto remove = [&](const Entry& e, std::uint64_t& evicted) {
    std::error_code rmEc;
    if (!fs::remove(e.path, rmEc) || rmEc) return;
    ++evicted;
    stats.evictedBytes += e.bytes;
    totalBytes -= e.bytes;
  };

  if (maxAgeSeconds >= 0.0) {
    const auto now = fs::file_time_type::clock::now();
    std::vector<Entry> kept;
    for (const Entry& e : entries) {
      const double age =
          std::chrono::duration_cast<std::chrono::duration<double>>(now -
                                                                    e.mtime)
              .count();
      // maxAge == 0 is the evict-all flush: every entry goes, including
      // one written within the current clock tick (age == 0).
      if (maxAgeSeconds == 0.0 || age > maxAgeSeconds) {
        remove(e, stats.evictedByAge);
      } else {
        kept.push_back(e);
      }
    }
    entries = std::move(kept);
  }

  if (maxBytes > 0 && totalBytes > maxBytes) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
    for (const Entry& e : entries) {
      if (totalBytes <= maxBytes) break;
      remove(e, stats.evictedBySize);
    }
  }

  if (telemetry::enabled() &&
      (stats.evictedByAge > 0 || stats.evictedBySize > 0)) {
    evictedAgeTotal.add(stats.evictedByAge);
    evictedSizeTotal.add(stats.evictedBySize);
    evictedBytesTotal.add(stats.evictedBytes);
  }
  return stats;
}

}  // namespace hayat::engine
