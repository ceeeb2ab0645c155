// Coordinator <-> worker wire protocol.
//
// Distributed sweeps ship three kinds of payloads between the
// coordinator's scheduler lanes (scheduler.hpp) and worker processes
// (worker_proc.hpp): the ExperimentSpec (once per spec and connection),
// task assignments (just the task index — workers re-expand the spec
// deterministically, so the spec hash is the complete work-partitioning
// key), and RunResults.  A lane sends one Task and waits for its Result
// or TaskError before the next; telemetry and warm-cache frames ride the
// same framing.  Every message is length-prefixed:
//
//   'H' 'W' <version:u8> <type:u8> <payloadLength:u32 big-endian> <payload>
//
// Payloads are the same canonical text the signature and result cache
// use (key=value lines, doubles at %.17g), so a result that crosses the
// wire is bit-identical to one computed in-process — the property the
// dispatch determinism tests pin down.  The codec works over any byte
// stream: socketpairs for forked workers, TCP sockets for remote ones.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "telemetry/metrics.hpp"

namespace hayat::engine {

/// Protocol version; bumped on any framing or payload change.  A version
/// mismatch terminates the connection (workers and coordinators from
/// different builds must not exchange half-understood tasks).
/// v2: TelemetryOn message; Result frames may carry a trailing metrics
/// section (counter deltas for coordinator-side merge).
/// v3: CachePush frame (coordinator warms remote result caches); the
/// Result metrics section may also carry histogram deltas ("h," lines).
/// v4: ExperimentSpec payload gained the sweep-wide prune field (the
/// spec walker drives the codec, so the layout changed with it).
/// v5: workers keep every Spec they are sent (a map keyed by spec hash)
/// instead of exactly one, and accept Spec frames at any point in the
/// stream — one connection can interleave tasks from all the concurrent
/// jobs a `hayat serve` scheduler multiplexes onto it.  The Task payload
/// already carried the spec hash, so the frames are unchanged; the
/// version bump exists because a v4 worker would answer TaskError for
/// every task of a second spec.
/// v6: the spec walker gained the failure Monte Carlo knobs and Result
/// records carry a failure section (result-cache format v4), so both
/// payload layouts changed.
/// v7: the sweep-wide prune field left the spec walker with spatial
/// pruning, so the Spec payload layout changed again.
inline constexpr std::uint8_t kWireVersion = 7;

/// Message types.
enum class MsgType : std::uint8_t {
  Spec = 1,         ///< coordinator -> worker: the experiment to serve
  Task = 2,         ///< coordinator -> worker: one task index to run
  Result = 3,       ///< worker -> coordinator: task index + RunResult
  TaskError = 4,    ///< worker -> coordinator: task index + error text
  Shutdown = 5,     ///< coordinator -> worker: finish and exit cleanly
  TelemetryOn = 6,  ///< coordinator -> worker: start metrics collection
  CachePush = 7,    ///< coordinator -> worker: one result-cache entry
};

struct Message {
  MsgType type = MsgType::Shutdown;
  std::string payload;
};

/// Writes one framed message; retries on EINTR / short writes.  Returns
/// false on any write error (e.g. EPIPE after a worker death).
bool writeMessage(int fd, MsgType type, const std::string& payload);

/// Blocking read of one framed message.  Returns false on EOF, a read
/// error, a bad magic/version, or an oversized payload — all of which the
/// caller must treat as a dead peer.
bool readMessage(int fd, Message& out);

/// Like readMessage but waits at most `timeoutMs` for the message to
/// *start* arriving (poll on the first byte).  On timeout returns false
/// with `timedOut` set; any other false is a dead peer.
bool readMessage(int fd, Message& out, int timeoutMs, bool& timedOut);

/// Spec payload: `spec.name=<name>` line followed by the canonical field
/// walk.  Throws hayat::Error for specs that cannot cross the wire (a
/// fixed workload mix has no canonical serialization).
std::string encodeSpec(const ExperimentSpec& spec);

/// Parses an encoded spec; throws hayat::Error on any malformed or
/// out-of-order field.
ExperimentSpec decodeSpec(const std::string& payload);

/// Task payload: the task index plus the spec hash (cheap guard against
/// a worker serving a different spec than the coordinator assigned).
std::string encodeTask(int index, std::uint64_t specHash);
void decodeTask(const std::string& payload, int& index,
                std::uint64_t& specHash);

/// Result payload: task index line + the result-cache run record,
/// optionally followed by a telemetry metrics section
///
///   metrics,<lineCount>
///   c,<counterName>,<delta>
///   ...
///
/// (telemetry::encodeCounterDeltas output).  Telemetry-enabled workers
/// piggyback their counter *deltas* on every result so the coordinator
/// can aggregate fleet metrics without a shared filesystem; deltas since
/// a worker's last result are lost if it dies — an accepted gap, since
/// the flight data lives on the coordinator.
std::string encodeResult(int index, const RunResult& result,
                         const std::string& metricsText = "");

/// Decodes a Result payload.  When `metricDeltas` is non-null, any
/// metrics section (counter and histogram deltas) is parsed into it
/// (cleared first; absent section leaves it empty); a malformed metrics
/// section throws like any other malformed payload.
void decodeResult(const std::string& payload, int& index, RunResult& result,
                  telemetry::MetricDeltas* metricDeltas = nullptr);

/// CachePush payload: cache format version + entry identity + the raw
/// cache-file bytes.  Workers that receive one store it into their own
/// result-cache directory so a restarted fleet never recomputes a sweep
/// the coordinator already has.  Stamped with kCacheFormatVersion (not
/// just the wire version): a worker must reject an entry its cache
/// reader cannot parse even if the wire protocol matches.
std::string encodeCachePush(const std::string& specName, std::uint64_t hash,
                            const std::string& fileBytes);

/// Decodes a CachePush payload; throws hayat::Error on a malformed
/// payload, a cache-format-version mismatch, or a byte-count mismatch.
void decodeCachePush(const std::string& payload, std::string& specName,
                     std::uint64_t& hash, std::string& fileBytes);

/// TaskError payload: task index line + one free-form message line.
std::string encodeTaskError(int index, const std::string& message);
void decodeTaskError(const std::string& payload, int& index,
                     std::string& message);

}  // namespace hayat::engine
