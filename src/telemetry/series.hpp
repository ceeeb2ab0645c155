// Per-epoch time-series recorder with a compact binary format.
//
// Every aging epoch of every lifetime run yields one EpochRow: the
// temperature peaks, DTM throttle activity, throttled-step duty, and
// health state the paper's policy acts on — exactly the workload/aging
// time series that learned aging predictors train on (Genssler et al.,
// PAPERS.md).  Rows accumulate in a process-wide recorder and are dumped
// as `.epochs.bin`:
//
//   "HYEP" <version:u32 LE> <rowCount:u64 LE> <row>*
//   row := <policyLen:u32 LE> <policy bytes>
//          <chip:i32> <repetition:i32> <darkFraction:f64> <epochIndex:i32>
//          <startYear:f64> <chipPeakK:f64> <chipTimeAverageK:f64>
//          <minHealth:f64> <averageHealth:f64> <chipFmaxHz:f64>
//          <averageFmaxHz:f64> <dtmEvents:i64> <migrations:i64>
//          <throttles:i64> <throttledSteps:i32> <totalSteps:i32>
//          <throughputRatio:f64>
//
// All integers and IEEE-754 doubles are little-endian.  The format is a
// telemetry artifact, not a result contract: results stay in the cache /
// reporter formats, and the binary here exists so multi-million-epoch
// sweeps can record without the CSV size or parse cost (a CSV exporter
// converts on demand, see export.hpp and `hayat trace export`).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace hayat::telemetry {

inline constexpr std::uint32_t kEpochSeriesVersion = 1;

/// One epoch of one lifetime run.
struct EpochRow {
  int chip = 0;
  int repetition = 0;
  double darkFraction = 0.0;
  std::string policy;
  int epochIndex = 0;
  double startYear = 0.0;
  double chipPeakK = 0.0;
  double chipTimeAverageK = 0.0;
  double minHealth = 1.0;
  double averageHealth = 1.0;
  double chipFmaxHz = 0.0;
  double averageFmaxHz = 0.0;
  long dtmEvents = 0;
  long migrations = 0;
  long throttles = 0;
  int throttledSteps = 0;
  int totalSteps = 0;
  double throughputRatio = 1.0;
};

/// Process-wide epoch-series accumulator (mutex-guarded; appends happen
/// at epoch granularity, far off any hot path).
class EpochSeries {
 public:
  static EpochSeries& global();

  void append(EpochRow row);
  std::vector<EpochRow> rows() const;
  std::size_t size() const;
  void clear();

  /// Hold the append mutex across fork() (installForkHandlers).
  void lockForFork() const { mutex_.lock(); }
  void unlockAfterFork() const { mutex_.unlock(); }

 private:
  mutable std::mutex mutex_;
  std::vector<EpochRow> rows_;
};

/// Writes the binary format above.
void writeEpochSeriesBinary(std::ostream& out,
                            const std::vector<EpochRow>& rows);

/// Reads the binary format; returns false on bad magic, version, or
/// truncation (rows read so far are discarded).
bool readEpochSeriesBinary(std::istream& in, std::vector<EpochRow>& rows);

/// CSV view of the rows (%.17g doubles, one row per epoch).
void writeEpochSeriesCsv(std::ostream& out, const std::vector<EpochRow>& rows);

}  // namespace hayat::telemetry
