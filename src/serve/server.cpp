#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <sstream>

#include "engine/wire.hpp"
#include "engine/worker_proc.hpp"
#include "telemetry/metrics.hpp"

namespace hayat::serve {

namespace {

using std::chrono::steady_clock;

// The front door's counters advance with telemetry off too, so /metrics
// always reports the service's traffic.
telemetry::Counter& authFailuresTotal =
    telemetry::Registry::global().counter("hayat_serve_auth_failures_total");
telemetry::Counter& drainsTotal =
    telemetry::Registry::global().counter("hayat_serve_drains_total");
telemetry::Counter& badRequestsTotal = telemetry::Registry::global().counter(
    "hayat_serve_http_bad_requests_total");
telemetry::Counter& httpRequestsTotal =
    telemetry::Registry::global().counter("hayat_serve_http_requests_total");
telemetry::Counter& jobsCancelledTotal =
    telemetry::Registry::global().counter("hayat_serve_jobs_cancelled_total");
telemetry::Counter& jobsCompletedTotal =
    telemetry::Registry::global().counter("hayat_serve_jobs_completed_total");
telemetry::Counter& jobsFailedTotal =
    telemetry::Registry::global().counter("hayat_serve_jobs_failed_total");
telemetry::Counter& jobsStartedTotal =
    telemetry::Registry::global().counter("hayat_serve_jobs_started_total");
telemetry::Counter& streamsTotal =
    telemetry::Registry::global().counter("hayat_serve_streams_total");
telemetry::Counter& truncatedTotal = telemetry::Registry::global().counter(
    "hayat_serve_streams_truncated_total");
telemetry::Counter& wireRejectedTotal =
    telemetry::Registry::global().counter("hayat_serve_wire_rejected_total");
telemetry::Histogram& jobLatencySeconds =
    telemetry::Registry::global().histogram(
        "hayat_serve_job_latency_seconds",
        {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0});
telemetry::Gauge& queueDepth =
    telemetry::Registry::global().gauge("hayat_serve_queue_depth");
telemetry::Gauge& backlogTasks =
    telemetry::Registry::global().gauge("hayat_serve_backlog_tasks");
telemetry::Gauge& jobsRunning =
    telemetry::Registry::global().gauge("hayat_serve_jobs_running");

bool writeAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string hex16(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

/// Status body shared by POST /jobs, GET /jobs/<id>, and DELETE — the
/// key=value lines `hayat job status` re-parses.
std::string jobStatusBody(const JobRecord& job, int completed) {
  std::ostringstream out;
  out << "id=" << job.id << '\n'
      << "state=" << jobStateName(job.state) << '\n'
      << "name=" << job.specName << '\n'
      << "hash=" << hex16(job.specHash) << '\n'
      << "tasks=" << job.taskCount << '\n'
      << "completed=" << completed << '\n'
      << "priority=" << job.priority << '\n'
      << "client=" << job.client << '\n';
  if (!job.error.empty()) out << "error=" << job.error << '\n';
  return out.str();
}

std::string queryValue(const HttpRequest& req, const std::string& key) {
  for (const auto& [k, v] : parseQuery(req.query))
    if (k == key) return v;
  return "";
}

}  // namespace

ServeServer::ServeServer(ServeConfig config)
    : config_(config), queue_(config.queueDir, config.limits) {
  engine::SchedulerConfig sched;
  sched.dispatch = config_.dispatch;
  sched.localWorkers = config_.localWorkers;
  sched.cache = config_.cache;
  sched.cacheDir = config_.cacheDir;
  sched.taskTimeoutSeconds = config_.taskTimeoutSeconds;
  scheduler_ = std::make_unique<engine::SweepScheduler>(sched);
}

ServeServer::~ServeServer() { stop(); }

bool ServeServer::start() {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listenFd_, 64) < 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  started_ = true;
  acceptThread_ = std::thread([this] { acceptLoop(); });
  pumpThread_ = std::thread([this] { pumpLoop(); });
  return true;
}

void ServeServer::beginDrain() {
  draining_.store(true);
  drainsTotal.add();
}

void ServeServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  if (listenFd_ >= 0) {
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    listenFd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(connsMutex_);
    for (const auto& conn : conns_)
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  if (acceptThread_.joinable()) acceptThread_.join();
  if (pumpThread_.joinable()) pumpThread_.join();
  pruneConnections(/*joinAll=*/true);
  scheduler_->stop();
}

void ServeServer::pruneConnections(bool joinAll) {
  std::lock_guard<std::mutex> lock(connsMutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (joinAll || (*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServeServer::acceptLoop() {
  // Snapshot the fd: stop() rewrites the member (unsynchronized with
  // this thread); the shutdown/close is what makes accept() fail below.
  const int listenFd = listenFd_;
  while (!stopping_.load()) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (stop) or broken
    }
    pruneConnections(/*joinAll=*/false);
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    raw->fd = fd;
    raw->thread = std::thread([this, raw] {
      handleConnection(raw->fd);
      raw->done.store(true);
    });
    std::lock_guard<std::mutex> lock(connsMutex_);
    conns_.push_back(std::move(conn));
  }
}

void ServeServer::pumpLoop() {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queueDepth.set(queue_.activeCount());
    backlogTasks.set(scheduler_->backlog());

    std::lock_guard<std::mutex> lock(runningMutex_);
    // Retire finished runs.
    for (auto it = running_.begin(); it != running_.end();) {
      const std::string& id = it->first;
      RunningJob& info = it->second;
      if (info.run->failed()) {
        queue_.setState(id, JobState::Failed, info.run->error());
        scheduler_->detach(id, info.run);
        jobsFailedTotal.add();
        it = running_.erase(it);
      } else if (info.run->complete()) {
        queue_.setState(id, JobState::Completed);
        const double seconds =
            std::chrono::duration<double>(steady_clock::now() -
                                          info.started)
                .count();
        jobLatencySeconds.observe(seconds);
        scheduler_->detach(id, info.run);
        jobsCompletedTotal.add();
        it = running_.erase(it);
      } else {
        ++it;
      }
    }
    admitLocked();
    jobsRunning.set(static_cast<double>(running_.size()));
  }
}

void ServeServer::admitLocked() {
  if (static_cast<int>(running_.size()) >= config_.maxRunningJobs) return;
  for (const JobRecord& job : queue_.queuedJobs()) {
    if (static_cast<int>(running_.size()) >= config_.maxRunningJobs) break;
    if (running_.find(job.id) != running_.end()) continue;
    engine::ExperimentSpec spec;
    try {
      spec = engine::decodeSpec(job.specText);
    } catch (const std::exception& e) {
      // A journaled spec that no longer decodes (e.g. a wire-format
      // change across a restart) fails loudly instead of wedging the
      // queue.
      queue_.setState(job.id, JobState::Failed, e.what());
      jobsFailedTotal.add();
      continue;
    }
    RunningJob info;
    info.run = scheduler_->attach(spec, job.priority, job.id);
    info.started = steady_clock::now();
    queue_.setState(job.id, JobState::Running);
    running_.emplace(job.id, std::move(info));
    jobsStartedTotal.add();
  }
}

bool ServeServer::authorized(const HttpRequest& req) const {
  if (config_.authToken.empty()) return true;
  return req.header("authorization") == "Bearer " + config_.authToken;
}

void ServeServer::handleConnection(int fd) {
  // Protocol sniff: this socket also fields stray wire-protocol dials
  // ('H' 'W' magic).  They get counted and closed — the serve front door
  // is HTTP; workers are dialed by the scheduler, not the reverse.
  char peek[2] = {0, 0};
  struct pollfd pfd = {fd, POLLIN, 0};
  ssize_t got = 0;
  const auto sniffDeadline =
      steady_clock::now() + std::chrono::milliseconds(5000);
  while (got < 2) {
    if (::poll(&pfd, 1, 250) <= 0) {
      if (errno == EINTR) continue;
      if (stopping_.load() || steady_clock::now() > sniffDeadline) {
        ::close(fd);
        return;
      }
      continue;
    }
    got = ::recv(fd, peek, sizeof(peek), MSG_PEEK);
    if (got == 0 || (got < 0 && errno != EINTR && errno != EAGAIN)) {
      ::close(fd);
      return;
    }
    if (got < 0) got = 0;
  }
  if (peek[0] == 'H' && peek[1] == 'W') {
    wireRejectedTotal.add();
    ::close(fd);
    return;
  }

  // Incremental request read: poll in short slices so stop() is never
  // blocked behind a slow client, with a hard deadline for the request.
  std::string buffer;
  HttpRequest req;
  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    std::size_t consumed = 0;
    std::string error;
    const HttpParse st = parseHttpRequest(buffer, req, consumed, error);
    if (st == HttpParse::Ok) break;
    if (st == HttpParse::Bad) {
      badRequestsTotal.add();
      writeAll(fd, httpResponse(400, "text/plain", error + "\n"));
      ::close(fd);
      return;
    }
    if (stopping_.load() || steady_clock::now() > deadline) {
      writeAll(fd, httpResponse(408, "text/plain", "request timeout\n"));
      ::close(fd);
      return;
    }
    if (::poll(&pfd, 1, 250) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      ::close(fd);  // client went away mid-request
      return;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      ::close(fd);
      return;
    }
    buffer.append(buf, static_cast<std::size_t>(n));
  }

  route(req, fd);
  ::close(fd);
}

void ServeServer::route(const HttpRequest& req, int fd) {
  httpRequestsTotal.add();

  if (req.path == "/healthz") {
    writeAll(fd, httpResponse(200, "text/plain", "ok\n"));
    return;
  }
  if (req.path == "/metrics") {
    if (req.method != "GET") {
      writeAll(fd, httpResponse(405, "text/plain", "method not allowed\n"));
      return;
    }
    // Same Prometheus document a `hayat worker --listen` serves: the
    // process registry plus any merged fleet counters.
    writeAll(fd, engine::workerMetricsHttpResponse("/metrics"));
    return;
  }

  if (req.path != "/jobs" && req.path.compare(0, 6, "/jobs/") != 0) {
    writeAll(fd, httpResponse(404, "text/plain", "not found\n"));
    return;
  }
  if (!authorized(req)) {
    authFailuresTotal.add();
    writeAll(fd, httpResponse(401, "text/plain", "unauthorized\n",
                              {{"WWW-Authenticate", "Bearer"}}));
    return;
  }

  if (req.path == "/jobs") {
    if (req.method == "POST") {
      if (draining_.load() || stopping_.load()) {
        writeAll(fd, httpResponse(503, "text/plain", "draining\n"));
        return;
      }
      JobRecord job;
      try {
        const engine::ExperimentSpec spec = engine::decodeSpec(req.body);
        job.specText = engine::encodeSpec(spec);
        job.specName = spec.name;
        job.specHash = engine::specHash(spec);
        job.taskCount = spec.taskCount();
      } catch (const std::exception& e) {
        writeAll(fd, httpResponse(400, "text/plain",
                                  std::string("bad spec: ") + e.what() +
                                      "\n"));
        return;
      }
      const std::string client = req.header("x-client");
      if (!client.empty()) job.client = client;
      const std::string prio = queryValue(req, "priority");
      if (!prio.empty()) job.priority = std::atoi(prio.c_str());
      switch (queue_.submit(job)) {
        case JobQueue::Admission::Accepted:
          writeAll(fd, httpResponse(201, "text/plain",
                                    jobStatusBody(job, 0)));
          return;
        case JobQueue::Admission::QueueFull:
          writeAll(fd, httpResponse(429, "text/plain", "queue full\n"));
          return;
        case JobQueue::Admission::ClientLimit:
          writeAll(fd, httpResponse(429, "text/plain",
                                    "client job limit reached\n"));
          return;
      }
      return;
    }
    if (req.method == "GET") {
      std::ostringstream out;
      for (const JobRecord& job : queue_.list()) {
        int completed = 0;
        if (job.state == JobState::Completed) {
          completed = job.taskCount;
        } else if (job.state == JobState::Running) {
          std::lock_guard<std::mutex> lock(runningMutex_);
          const auto it = running_.find(job.id);
          if (it != running_.end())
            completed = it->second.run->completedTasks();
        }
        out << job.id << ' ' << jobStateName(job.state) << ' ' << completed
            << '/' << job.taskCount << ' ' << job.priority << ' '
            << job.client << ' ' << job.specName << '\n';
      }
      writeAll(fd, httpResponse(200, "text/plain", out.str()));
      return;
    }
    writeAll(fd, httpResponse(405, "text/plain", "method not allowed\n"));
    return;
  }

  // /jobs/<id> and /jobs/<id>/results
  std::string id = req.path.substr(6);
  bool wantResults = false;
  const std::string suffix = "/results";
  if (id.size() > suffix.size() &&
      id.compare(id.size() - suffix.size(), suffix.size(), suffix) == 0) {
    wantResults = true;
    id.resize(id.size() - suffix.size());
  }
  const auto job = queue_.get(id);
  if (!job) {
    writeAll(fd, httpResponse(404, "text/plain", "no such job\n"));
    return;
  }

  if (wantResults) {
    if (req.method != "GET") {
      writeAll(fd, httpResponse(405, "text/plain", "method not allowed\n"));
      return;
    }
    streamResults(id, fd);
    return;
  }

  if (req.method == "GET") {
    int completed = 0;
    if (job->state == JobState::Completed) {
      completed = job->taskCount;
    } else if (job->state == JobState::Running) {
      std::lock_guard<std::mutex> lock(runningMutex_);
      const auto it = running_.find(id);
      if (it != running_.end())
        completed = it->second.run->completedTasks();
    }
    writeAll(fd, httpResponse(200, "text/plain",
                              jobStatusBody(*job, completed)));
    return;
  }
  if (req.method == "DELETE") {
    std::lock_guard<std::mutex> lock(runningMutex_);
    const auto fresh = queue_.get(id);
    if (!fresh) {
      writeAll(fd, httpResponse(404, "text/plain", "no such job\n"));
      return;
    }
    if (fresh->state != JobState::Queued &&
        fresh->state != JobState::Running) {
      writeAll(fd, httpResponse(409, "text/plain",
                                std::string("job already ") +
                                    jobStateName(fresh->state) + "\n"));
      return;
    }
    queue_.setState(id, JobState::Cancelled);
    const auto it = running_.find(id);
    if (it != running_.end()) {
      scheduler_->detach(id, it->second.run);
      running_.erase(it);
    }
    jobsCancelledTotal.add();
    JobRecord cancelled = *fresh;
    cancelled.state = JobState::Cancelled;
    writeAll(fd, httpResponse(200, "text/plain",
                              jobStatusBody(cancelled, 0)));
    return;
  }
  writeAll(fd, httpResponse(405, "text/plain", "method not allowed\n"));
}

void ServeServer::streamResults(const std::string& id, int fd) {
  // Wait out the queued phase; the pump owns admission order.
  std::optional<JobRecord> job;
  for (;;) {
    job = queue_.get(id);
    if (!job) {
      writeAll(fd, httpResponse(404, "text/plain", "no such job\n"));
      return;
    }
    if (job->state != JobState::Queued) break;
    if (stopping_.load()) {
      writeAll(fd, httpResponse(503, "text/plain", "shutting down\n"));
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (job->state == JobState::Failed) {
    writeAll(fd, httpResponse(500, "text/plain", job->error + "\n"));
    return;
  }
  if (job->state == JobState::Cancelled) {
    writeAll(fd, httpResponse(410, "text/plain", "job cancelled\n"));
    return;
  }

  // Running: share the live run.  Completed (possibly in a previous
  // daemon incarnation): attach a stream-scoped reference — normally an
  // instant result-cache hit, and a deterministic recompute when the
  // cache was evicted.  Either way the bytes are identical.
  std::shared_ptr<engine::SpecRun> run;
  std::string streamJobId;
  {
    std::lock_guard<std::mutex> lock(runningMutex_);
    const auto it = running_.find(id);
    if (it != running_.end()) run = it->second.run;
  }
  if (!run) {
    try {
      const engine::ExperimentSpec spec = engine::decodeSpec(job->specText);
      streamJobId = "stream-" + id + "-" +
                    std::to_string(streamSeq_.fetch_add(1));
      run = scheduler_->attach(spec, job->priority, streamJobId);
    } catch (const std::exception& e) {
      writeAll(fd, httpResponse(500, "text/plain",
                                std::string(e.what()) + "\n"));
      return;
    }
  }

  streamsTotal.add();
  bool ok = writeAll(fd, httpChunkedHead(200, "text/plain"));
  const int tasks = run->taskCount();
  for (int i = 0; ok && i < tasks; ++i) {
    for (;;) {
      const auto row = run->waitRow(i, 250);
      if (row) {
        ok = writeAll(fd, httpChunk(*row));
        break;
      }
      // No row yet: distinguish "still computing" from "never coming".
      if (stopping_.load() || run->failed()) {
        ok = false;
        break;
      }
      const auto fresh = queue_.get(id);
      if (!fresh || fresh->state == JobState::Cancelled ||
          fresh->state == JobState::Failed) {
        ok = false;  // close without the zero chunk: truncated stream
        break;
      }
    }
  }
  if (ok) {
    writeAll(fd, httpChunkEnd());
  } else {
    truncatedTotal.add();
  }
  if (!streamJobId.empty()) scheduler_->detach(streamJobId, run);
}

namespace {
volatile std::sig_atomic_t gServeSignal = 0;
void onServeSignal(int) { gServeSignal = 1; }
}  // namespace

int serveMain(const ServeConfig& config) {
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, onServeSignal);
  std::signal(SIGINT, onServeSignal);

  ServeServer server(config);
  if (!server.start()) {
    std::fprintf(stderr, "[serve] cannot bind port %d\n", config.port);
    return 1;
  }
  std::fprintf(stderr,
               "[serve] listening on port %d (queue %s, %d lanes%s)\n",
               server.port(), config.queueDir.c_str(),
               server.scheduler().laneCount(),
               config.authToken.empty() ? "" : ", auth on");
  while (gServeSignal == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::fprintf(stderr, "[serve] drain: %d active jobs\n",
               server.activeJobs());
  server.beginDrain();
  gServeSignal = 0;  // a second signal aborts the drain
  while (server.activeJobs() > 0 && gServeSignal == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();
  std::fprintf(stderr, "[serve] stopped\n");
  return 0;
}

}  // namespace hayat::serve
