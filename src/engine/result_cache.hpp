// Spec-hash keyed on-disk result cache.
//
// Generalizes the old bench/sweep.cpp `hayat_sweep_cache.csv` hack: any
// ExperimentSpec's merged SweepTable is stored under
// `<dir>/<name>-<hash16>.csv` where hash16 is the 16-hex-digit specHash.
// The file embeds the full canonical signature, so a hash collision (or a
// stale file produced by a different spec version) is detected and
// treated as a miss instead of returning wrong results.  All doubles are
// serialized with %.17g, which round-trips IEEE-754 exactly — a cache hit
// reloads results bit-identical to the run that produced them.
//
// The cache directory defaults to `hayat_cache/` relative to the working
// directory (i.e. under build/ for the usual cmake workflow) and is
// overridden by HAYAT_CACHE_DIR; HAYAT_NO_CACHE turns the cache off.
// resolveCacheDir() and resolveCacheEnabled() are the only readers of
// those two variables.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "engine/engine.hpp"

namespace hayat::engine {

/// On-disk cache format version.  Every entry is stamped with it; loading
/// an entry written by a different format is a miss that also deletes the
/// stale file (see loadCachedTable).  v3: thermal solves moved to the
/// RCM-ordered sparse kernels, which shifts results at the last few ulps
/// — entries computed with the dense pre-sparse numerics must not be
/// served as hits.  v4: every record carries a failure section (the
/// Monte Carlo lifetime distribution, or "none" for point-MTTF runs), so
/// v3 readers and v4 files must never mix.
inline constexpr int kCacheFormatVersion = 4;

/// Canonical text record of one RunResult (identity columns + the full
/// lifetime trace, doubles at %.17g so values round-trip exactly).  The
/// cache files and the worker wire protocol (wire.hpp) share it.
void writeRunResult(std::ostream& out, const RunResult& result);

/// Reads one record written by writeRunResult; returns false on any
/// malformed input (and may leave `result` partially filled).
bool readRunResult(std::istream& in, RunResult& result);

/// The cache directory: `configured` when non-empty, else
/// HAYAT_CACHE_DIR, else "hayat_cache".
std::string resolveCacheDir(const std::string& configured = "");

/// `configured`, forced off when HAYAT_NO_CACHE is set.
bool resolveCacheEnabled(bool configured = true);

/// Cache file path for a spec inside `dir`.
std::string cachePath(const std::string& dir, const ExperimentSpec& spec);

/// Cache file path from the entry identity alone (sanitized name +
/// hash16) — what a worker storing a pushed entry uses, since it has the
/// bytes and identity but not necessarily the expanded spec.
std::string cacheEntryPath(const std::string& dir, const std::string& name,
                           std::uint64_t hash);

/// Stores a cache entry pushed over the wire (wire.hpp CachePush):
/// validates the leading format-version magic, then writes the bytes
/// atomically (tmp + rename) under cacheEntryPath().  Returns false —
/// without touching the cache — on a version mismatch or any I/O
/// failure; the next loadCachedTable() still verifies the embedded
/// signature before serving it, so a hostile or stale push can waste
/// disk but never poison results.
bool storePushedCacheEntry(const std::string& dir, const std::string& name,
                           std::uint64_t hash, const std::string& fileBytes);

/// Loads the cached table for `spec`, or nullopt on miss (no file,
/// unreadable file, version or signature mismatch, or corruption).  A
/// file that exists but cannot serve the spec is an orphan — a previous
/// format, a hash collision, or a torn write — and is deleted so the
/// cache directory never accumulates entries nothing will ever read.
std::optional<SweepTable> loadCachedTable(const std::string& dir,
                                          const ExperimentSpec& spec);

/// Writes the table for `spec`, creating `dir` if needed.  Failures are
/// swallowed (the cache is best-effort); returns false on failure.
bool storeCachedTable(const std::string& dir, const ExperimentSpec& spec,
                      const SweepTable& table);

/// Outcome of one evictResultCache() pass.
struct CacheEvictionStats {
  std::uint64_t scannedFiles = 0;   ///< entries examined
  std::uint64_t scannedBytes = 0;   ///< their total size before eviction
  std::uint64_t evictedByAge = 0;   ///< entries older than maxAgeSeconds
  std::uint64_t evictedBySize = 0;  ///< entries dropped to meet maxBytes
  std::uint64_t evictedBytes = 0;   ///< bytes reclaimed
};

/// Deletes *valid* cache entries (orphans are already dropped on load) to
/// keep `dir` bounded: first every `.csv` entry whose mtime is older than
/// `maxAgeSeconds`, then oldest-first until the directory fits in
/// `maxBytes`.  Oldest-first means the entry just written by the current
/// run survives unless maxBytes is smaller than that single file.
/// `maxBytes == 0` disables the size bound.  `maxAgeSeconds` is a
/// tri-state: negative disables the age bound, exactly 0 evicts every
/// entry (the `--cache-max-age=0` flush idiom), positive evicts entries
/// older than the limit.  Missing directories are a no-op.
CacheEvictionStats evictResultCache(const std::string& dir,
                                    std::uint64_t maxBytes,
                                    double maxAgeSeconds);

}  // namespace hayat::engine
