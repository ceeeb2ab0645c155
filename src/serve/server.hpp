// The `hayat serve` daemon (DESIGN.md §3.12): a persistent multi-tenant
// sweep service over one listening socket.
//
// Request flow:
//
//   accept -> protocol sniff (framed-wire connections are counted and
//   closed; this socket speaks HTTP) -> incremental request parse with
//   hard size bounds (http.hpp) -> bearer auth for /jobs* -> router:
//
//     POST   /jobs               submit a spec (canonical wire text body)
//     GET    /jobs               list jobs
//     GET    /jobs/<id>          status (key=value lines)
//     GET    /jobs/<id>/results  chunked stream, one result row per chunk
//     DELETE /jobs/<id>          cancel
//     GET    /metrics            Prometheus text (unauthenticated)
//     GET    /healthz            liveness probe (unauthenticated)
//
// Jobs are journaled by the durable JobQueue before they are
// acknowledged, admitted by a background pump that bounds concurrently
// running jobs, and executed by one shared SweepScheduler
// (engine/scheduler.hpp) — so two clients submitting the same spec share
// one computation and one result cache, and a SIGKILLed daemon replays
// its queue directory on restart and converges to byte-identical results.
//
// The results stream is the canonical writeRunResult records of tasks
// 0..n-1 in order: its concatenation is byte-identical to a one-shot
// `hayat sweep` of the same spec.  A cancelled or failed job's stream is
// closed without the terminating zero chunk, which clients observe as
// truncation rather than silent completion.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/scheduler.hpp"
#include "serve/http.hpp"
#include "serve/job_queue.hpp"

namespace hayat::serve {

struct ServeConfig {
  int port = 0;                 ///< 0 binds an ephemeral port (see port())
  std::string queueDir = "hayat_jobs";
  std::string authToken;        ///< "" serves unauthenticated
  std::string dispatch;         ///< worker fleet (§3.6); "" = local lanes
  int localWorkers = 2;
  JobQueue::Limits limits;
  int maxRunningJobs = 4;       ///< jobs attached to the scheduler at once
  bool cache = true;
  std::string cacheDir;
  double taskTimeoutSeconds = 300.0;
};

class ServeServer {
 public:
  explicit ServeServer(ServeConfig config);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, listens, and starts the accept + job-pump threads.  Returns
  /// false when the port cannot be bound.
  bool start();

  /// The bound port (after start(); resolves port 0 to the real one).
  int port() const { return port_; }

  /// Stops admitting jobs: POST /jobs answers 503, everything already
  /// accepted keeps running.  The SIGTERM half of graceful drain.
  void beginDrain();
  bool draining() const { return draining_.load(); }

  /// Queued + running jobs — zero means a drain has quiesced.
  int activeJobs() const { return queue_.activeCount(); }

  /// Closes the listener and every open connection, stops the pump and
  /// the scheduler, joins all threads.  Idempotent.
  void stop();

  JobQueue& queue() { return queue_; }
  engine::SweepScheduler& scheduler() { return *scheduler_; }

 private:
  struct RunningJob {
    std::shared_ptr<engine::SpecRun> run;
    std::chrono::steady_clock::time_point started;
  };
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptLoop();
  void pumpLoop();
  void admitLocked();
  void handleConnection(int fd);
  void route(const HttpRequest& req, int fd);
  void streamResults(const std::string& id, int fd);
  bool authorized(const HttpRequest& req) const;
  void pruneConnections(bool joinAll);

  ServeConfig config_;
  JobQueue queue_;
  std::unique_ptr<engine::SweepScheduler> scheduler_;

  int listenFd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::thread acceptThread_;
  std::thread pumpThread_;

  std::mutex runningMutex_;
  std::map<std::string, RunningJob> running_;

  std::mutex connsMutex_;
  std::list<std::unique_ptr<Conn>> conns_;
  std::atomic<std::uint64_t> streamSeq_{0};
};

/// `hayat serve`: runs a server until SIGTERM/SIGINT, then drains
/// gracefully (a second signal aborts the drain) and exits 0.
int serveMain(const ServeConfig& config);

}  // namespace hayat::serve
