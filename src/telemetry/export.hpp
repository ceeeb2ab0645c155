// Telemetry exporters and merge helpers.
//
// Two export formats, one per consumer:
//   - Prometheus text for metrics (scrape-compatible: # TYPE headers,
//     cumulative _bucket{le=...} histogram lines, _sum/_count);
//   - Chrome trace_event JSON for spans (load in chrome://tracing or
//     Perfetto; one "X" complete event per span).
// The per-epoch trace is a result, not telemetry: engine/reporter.hpp
// writes it (writeEpochsCsv) from the SweepTable.
//
// Merging: a distributed sweep produces one telemetry directory per
// participating process plus worker counters that arrived over the wire.
// mergePrometheusFiles/mergeChromeTraceFiles fold any number of exports
// into one file — counters and histogram lines sum, gauges take the max
// — which is what `hayat trace export` serves.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat::telemetry {

/// Prometheus text exposition of a snapshot.  `workerCounters` and
/// `workerHistograms` (summed deltas received from remote workers) are
/// emitted alongside under the same names with a {source="worker"}
/// label so one file carries the whole fleet.
void writePrometheus(
    std::ostream& out, const MetricsSnapshot& snapshot,
    const std::map<std::string, std::uint64_t>& workerCounters = {},
    const std::vector<HistogramSnapshot>& workerHistograms = {});

/// Chrome trace_event JSON ({"traceEvents": [...]}) of completed spans.
/// Timestamps are microseconds from the steady-clock epoch; `pid` tags
/// every event so merged multi-process traces stay distinguishable.
void writeChromeTrace(std::ostream& out, const std::vector<SpanEvent>& events,
                      int pid);

/// Strict JSON syntax check (objects, arrays, strings, numbers, bools,
/// null; no trailing garbage).  The CI smoke job and the trace-export
/// tests gate on this so an exporter can never emit unparseable JSON.
bool validateJson(const std::string& text);

/// Merges Chrome trace files written by writeChromeTrace into one
/// document.  Returns false if any input is unreadable or malformed.
bool mergeChromeTraceFiles(const std::vector<std::string>& paths,
                           std::ostream& out);

/// Merges Prometheus text files written by writePrometheus: counter and
/// histogram samples with identical name+labels sum, gauges take the
/// max.  Returns false if any input is unreadable or malformed.
bool mergePrometheusFiles(const std::vector<std::string>& paths,
                          std::ostream& out);

}  // namespace hayat::telemetry
