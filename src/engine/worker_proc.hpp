// Worker side of the distributed ExperimentEngine.
//
// A worker is a stateless task server: it receives one ExperimentSpec,
// re-expands it into RunTasks (expansion is deterministic, so the spec
// hash is the complete work-partitioning key), then answers Task messages
// with Result messages until it is shut down or its connection closes.
// Workers never *compute into* the result cache — but they do accept
// CachePush frames (wire.hpp): the coordinator pushes entries it already
// has into each remote worker's cache directory, so a restarted fleet
// does not recompute sweeps its coordinator can answer from disk.
//
// Three transports, all speaking the same wire protocol (wire.hpp) and
// all started by spawnWorker():
//   - fork:  forks the current process; the child runs runWorkerLoop()
//            over a socketpair.  Used by `--workers=proc:N`.
//   - exec:  fork/execs a `hayat worker --stdio` process.  Used by
//            `--workers=exec:N` (HAYAT_WORKER_BIN selects the binary,
//            default "hayat" from PATH).
//   - tcp:   `hayat worker --listen PORT` serves coordinators that dial
//            in with `--workers=tcp:host:port`.  The same listen socket
//            doubles as a plain-HTTP endpoint: a connection that opens
//            with an HTTP method token is answered with Prometheus text
//            for GET /metrics (404 for other targets, 405 for other
//            methods) and closed — `curl host:port/metrics`
//            scrapes a live worker with no extra port.
//
// Fault injection for the crash-recovery tests (unset in normal
// operation): HAYAT_FAULT_PLAN's worker rules (fault.hpp) —
// delay:worker=W,ms=M / die:worker=W,after=K / stall:worker=W,after=K —
// address the worker spawned into slot W.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace hayat::engine {

/// One entry of a `--workers=` / HAYAT_DISPATCH list.
struct WorkerEndpoint {
  enum class Kind {
    Fork,  ///< proc:N — fork this process, child serves tasks in-image
    Exec,  ///< exec:N — fork/exec `hayat worker --stdio` (HAYAT_WORKER_BIN)
    Tcp,   ///< tcp:host:port — dial a `hayat worker --listen` server
  };
  Kind kind = Kind::Fork;
  int count = 1;       ///< Fork/Exec: processes to spawn
  std::string host;    ///< Tcp
  int port = 0;        ///< Tcp
};

/// Parses a comma-separated endpoint list: "proc:4", "exec:2",
/// "tcp:host:port", "proc:2,tcp:10.0.0.5:7707".  Throws hayat::Error on
/// malformed input.
std::vector<WorkerEndpoint> parseWorkerSpec(const std::string& text);

/// Serves one coordinator connection: reads the Spec, then loops over
/// Task messages until Shutdown or EOF.  Returns a process exit code.
/// `faultSlot` is this worker's fault-plan slot; < 0 reads it from
/// HAYAT_FAULT_WORKER.
int runWorkerLoop(int inFd, int outFd, int faultSlot = -1);

/// Starts the worker behind one endpoint slot (its count is ignored):
/// forks (Fork), fork/execs HAYAT_WORKER_BIN (Exec) or dials with a 2 s
/// timeout (Tcp).  Returns the coordinator-side fd, or -1 when the
/// worker cannot be started; `pid` receives the child (-1 for Tcp).
///
/// Fork-safe under threads: spawns are serialized process-wide, the
/// telemetry and shared start-up cache mutexes are held across fork()
/// (telemetry::installForkHandlers), and
/// the child closes every inherited descriptor but stdio and its own
/// socket, so no worker keeps a sibling's socket (or a server's listen
/// socket) open.  `slot >= 0` is the child's fault-plan slot, exported
/// to exec'd children as HAYAT_FAULT_WORKER; a forked child also drops
/// the coordinator-side fault rules it inherited.
int spawnWorker(const WorkerEndpoint& endpoint, int slot, pid_t& pid);

/// Ignores SIGPIPE if it is still at its default, so a write racing a
/// peer's death is an EPIPE error instead of a fatal signal.
void ignoreSigpipe();

/// Serves connections one at a time on an already-listening socket (used
/// by the TCP worker and the tests): wire-protocol coordinators run the
/// worker loop, "GET "-prefixed connections get one HTTP response (see
/// workerMetricsHttpResponse) and are closed.  Returns when accept
/// fails, e.g. when the socket is closed.
int serveWorkerOnListenSocket(int listenFd);

/// Full HTTP/1.0 response for a request target: /metrics gets a 200
/// whose body is this process's live Prometheus text (including any
/// merged worker counters/histograms), everything else a 404.  The
/// request counter hayat_worker_metrics_requests_total advances even
/// with telemetry disabled, so a scrape is never an empty document.
std::string workerMetricsHttpResponse(const std::string& target);

/// The HTTP envelope around `body` (status 200, 404, or 405; Prometheus
/// text/plain version 0.0.4 content type on 200, an Allow: GET header on
/// 405).  Split out so the exact bytes are golden-testable with a fixed
/// body.
std::string workerHttpResponse(int status, const std::string& body);

/// `hayat worker --stdio`: serves the coordinator on stdin/stdout.
/// Stray stdout writes from library code would corrupt the protocol, so
/// fd 1 is re-pointed at stderr for the duration.
int workerServeStdio();

/// `hayat worker --listen PORT`: binds (port 0 picks an ephemeral port,
/// printed to stderr), then serves coordinators until interrupted.
int workerListenTcp(int port);

/// Connects to a `hayat worker --listen` endpoint; returns the socket fd
/// or -1 if the worker is unreachable within `timeoutMs`.
int connectTcpWorker(const std::string& host, int port, int timeoutMs);

}  // namespace hayat::engine
