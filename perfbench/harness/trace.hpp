// In-memory spans recorded by the harness around its own calls into the
// library's layers.  A span's name is "<layer>.<call>", so a layer's self
// time is the summed self time of the spans named after it.  The spans
// are written out once the run ends, never during it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct SpanRecord {
  int id = 0;
  int parent = -1;          ///< -1: a root span
  std::string name;         ///< "<layer>.<call>"
  std::string task;         ///< "<job>" or "<job>/<task index>"
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when tracing is off).
  int begin(const char* name, int parent, const std::string& task);
  void end(int id);

  std::vector<SpanRecord> spans() const;

  /// Writes one JSON object per span and line.  False on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::uint64_t now() const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent,
             const std::string& task)
      : tracer_(tracer), id_(tracer.begin(name, parent, task)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

/// Self time summed per layer: each span's duration minus the part of
/// it the union of its children covers.  Children run on other threads
/// too, so a parent waiting on a pool has no self time while any child
/// runs.
std::map<std::string, double> selfSecondsByLayer(
    const std::vector<SpanRecord>& spans);

/// Durations [s] of the spans called `name`.
std::vector<double> spanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& name);

}  // namespace perfbench
