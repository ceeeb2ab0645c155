// RAII scoped spans and the per-thread flight recorder.
//
// A Span brackets one unit of work (a policy decision, an epoch window,
// an LU factorization).  On destruction it records a completed SpanEvent
// into the calling thread's FlightRecorder — a fixed-capacity ring
// buffer, so the process always holds the *last* N events per thread and
// can dump them on demand or on crash without unbounded memory growth.
//
// Span names must be string literals (the ring stores the pointer, not a
// copy).  When telemetry is disabled a Span is two branches and no clock
// reads; events are only recorded while enabled.
// High-frequency sites (epoch.window, lifetime.epoch — thousands per
// lifetime run) can be sampled: setSpanSampling(N) / HAYAT_SPAN_SAMPLE=N
// keeps 1-in-N of them so multi-hour sweeps don't churn the rings.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "telemetry/metrics.hpp"

namespace hayat::telemetry {

/// Monotonic nanoseconds (steady clock) used for all span timestamps.
std::uint64_t nowNanos();

/// Keep 1-in-N spans at sampled span sites (1 = keep all, the default).
/// Only sites that opt in via sampleSpanSite() are affected.
void setSpanSampling(std::uint32_t everyN);

/// Current sampling divisor (>= 1).
std::uint32_t spanSampleEvery();

/// Call at a sampled span site with a per-site counter; returns true
/// when this occurrence should be recorded (every N-th, starting with
/// the first).  Pass the result to the Span(name, record) overload.
bool sampleSpanSite(std::atomic<std::uint64_t>& siteCounter);

/// One completed span.
struct SpanEvent {
  const char* name = "";        ///< string literal only
  std::uint64_t startNs = 0;    ///< nowNanos() at entry
  std::uint64_t durationNs = 0;
  std::uint32_t threadId = 0;   ///< process-local registration order
  std::uint16_t depth = 0;      ///< nesting level at entry (0 = outermost)
};

/// Fixed-capacity ring of the most recent spans of one thread.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(const SpanEvent& event);

  /// Retained events, oldest first.
  std::vector<SpanEvent> events() const;

  /// Total events ever recorded (>= events().size(); the difference is
  /// what the ring has overwritten).
  std::uint64_t recorded() const;

  std::size_t capacity() const { return ring_.size(); }

 private:
  friend void lockSpansForFork();
  friend void unlockSpansAfterFork();

  mutable std::mutex mutex_;
  std::vector<SpanEvent> ring_;
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
};

/// The calling thread's recorder (created and registered globally on
/// first use; survives thread exit so late dumps still see its events).
FlightRecorder& threadRecorder();

/// Merged snapshot of every thread's ring, sorted by start time.
std::vector<SpanEvent> collectAllSpans();

/// Take (and release) the recorder directory and every recorder's mutex,
/// directory first — the span part of installForkHandlers.
void lockSpansForFork();
void unlockSpansAfterFork();

/// Scoped span: records [construction, destruction) into the calling
/// thread's flight recorder when telemetry is enabled.
class Span {
 public:
  explicit Span(const char* name);
  /// Sampled-site overload: records only when `record` is true (see
  /// sampleSpanSite()); a false `record` costs one branch.
  Span(const char* name, bool record);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  ///< nullptr = telemetry was off at entry
  std::uint64_t startNs_ = 0;
};

}  // namespace hayat::telemetry
