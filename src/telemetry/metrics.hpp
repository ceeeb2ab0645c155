// Process-wide metrics registry: counters, gauges, histograms.
//
// The observability substrate for everything from EpochSimulator windows
// to scheduler wire RPCs.  Design constraints, in order:
//
//   1. Disabled must be (almost) free.  Every instrumentation site guards
//      on `telemetry::enabled()`, a relaxed load of one process-wide
//      atomic — when telemetry is off the instrumentation compiles down
//      to that branch, no clock reads, no allocation, so sweep results
//      stay byte-identical and tier-1 timing is unaffected.
//   2. Enabled must be lock-cheap on hot paths.  Counters are sharded
//      across cache-line-padded atomics indexed by thread, so concurrent
//      increments from the task pool do not bounce a single line.
//   3. Metric objects never move, so the .cpp that updates a metric
//      binds its handle once, during static initialisation: a
//      namespace-scope `Counter&`/`Gauge&`/`Histogram&`, or a member of
//      a namespace-scope object (SharedMemo).  No call site takes the
//      registry mutex, and no first-use guard is in flight at fork().
//
// This library sits below common/ (it depends only on the standard
// library) so every layer — thermal, runtime, core, engine — can
// instrument itself without dependency cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hayat::telemetry {

namespace detail {
extern std::atomic<bool> gEnabled;
}  // namespace detail

/// True when telemetry collection is on (configure() or setEnabled()).
/// The one branch every instrumentation site pays when disabled.
inline bool enabled() {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

/// Turns collection on or off without touching the export configuration.
void setEnabled(bool on);

/// Monotonic counter.  add() hits one of kShards cache-line-padded
/// atomics chosen by the calling thread; value() sums the shards.
class Counter {
 public:
  void add(std::uint64_t n = 1);
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  static constexpr unsigned kShards = 16;
  Shard shards_[kShards];
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus-style cumulative buckets).  The
/// bucket layout is frozen at construction; observe() is two relaxed
/// atomic adds plus a linear scan over a handful of bounds.
class Histogram {
 public:
  /// `upperBounds` must be strictly increasing; an implicit +inf bucket
  /// is appended.
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double value);
  std::uint64_t count() const;
  double sum() const;
  const std::vector<double>& upperBounds() const { return bounds_; }

  /// Per-bucket (non-cumulative) counts; size upperBounds().size() + 1,
  /// last entry is the overflow bucket.
  std::vector<std::uint64_t> bucketCounts() const;

  /// Bucket-interpolated quantile, q in [0, 1]: finds the bucket holding
  /// the q-th observation and interpolates linearly inside it (the first
  /// bucket interpolates from 0, the overflow bucket reports its lower
  /// bound).  Returns 0 with no observations.
  double percentile(double q) const;

  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds + overflow
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one histogram, for exporters.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> upperBounds;
  std::vector<std::uint64_t> counts;  ///< per bucket, non-cumulative
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of the whole registry, name-sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Named metric registry.  Lookup takes a mutex, so callers look a
/// metric up once, during static initialisation, and keep the
/// reference; the metric objects are allocated once and never move or
/// die.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Returns the histogram registered under `name`, creating it with
  /// `upperBounds` on first use (later calls ignore the bounds).
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& upperBounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every metric (objects and references stay valid).  Tests
  /// only; production code never resets.
  void resetAllForTest();

  /// Hold the lookup mutex across fork() (installForkHandlers).
  void lockForFork() const { mutex_.lock(); }
  void unlockAfterFork() const { mutex_.unlock(); }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Encodes the counters that advanced since `lastSent` as "c,<name>,<d>"
/// lines and updates `lastSent` to the current values — the payload
/// workers piggyback on wire Result frames so the coordinator can merge
/// a fleet's metrics without any shared filesystem.  Reads `registry`
/// (a test passes its own).
std::string encodeCounterDeltas(std::map<std::string, std::uint64_t>& lastSent,
                                const Registry& registry = Registry::global());

/// Parses encodeCounterDeltas output; returns false on malformed input.
bool decodeCounterDeltas(
    const std::string& text,
    std::vector<std::pair<std::string, std::uint64_t>>& out);

/// Encodes the histograms that advanced since `lastSent` as
///
///   h,<name>,<countDelta>,<sumDelta>,<le>:<d>,...,+Inf:<d>
///
/// lines (one per histogram, every bucket listed so the coordinator can
/// reconstruct the layout) and updates `lastSent`.  Workers append this
/// to the counter deltas on Result frames — wire v3's histogram
/// shipping.
std::string encodeHistogramDeltas(
    std::map<std::string, HistogramSnapshot>& lastSent);

/// Counter and histogram deltas decoded from one wire metrics section.
/// Histogram counts/sums are deltas since the worker's previous send,
/// not totals.
struct MetricDeltas {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }
  void clear() {
    counters.clear();
    histograms.clear();
  }
};

/// Parses a metrics section of "c,..." and "h,..." lines; returns false
/// on any malformed line.
bool decodeMetricDeltas(const std::string& text, MetricDeltas& out);

}  // namespace hayat::telemetry
