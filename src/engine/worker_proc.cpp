#include "engine/worker_proc.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "engine/builtin_policies.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "engine/result_cache.hpp"
#include "engine/wire.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace hayat::engine {

namespace {

int parsePositiveInt(const std::string& text, const char* what) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  HAYAT_REQUIRE(end == text.c_str() + text.size() && !text.empty() &&
                    value >= 1,
                std::string("worker spec: bad ") + what + " '" + text + "'");
  return static_cast<int>(value);
}

telemetry::Counter& pushRejectedTotal = telemetry::Registry::global().counter(
    "hayat_worker_cache_push_rejected_total");
telemetry::Counter& pushStoredTotal = telemetry::Registry::global().counter(
    "hayat_worker_cache_push_stored_total");
telemetry::Counter& scrapesTotal = telemetry::Registry::global().counter(
    "hayat_worker_metrics_requests_total");
telemetry::Histogram& taskSeconds = telemetry::Registry::global().histogram(
    "hayat_worker_task_seconds", {0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0});

/// A pushed entry is best-effort cache warming: malformed frames and
/// failed stores are counted and dropped, never fatal — a corrupt push
/// must not cost the fleet a worker.
void handleCachePush(const std::string& payload) {
  std::string name;
  std::uint64_t hash = 0;
  std::string fileBytes;
  try {
    decodeCachePush(payload, name, hash, fileBytes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[worker %d] rejecting cache push: %s\n", ::getpid(),
                 e.what());
    pushRejectedTotal.add();
    return;
  }
  if (!resolveCacheEnabled()) {
    pushRejectedTotal.add();
    return;
  }
  if (storePushedCacheEntry(resolveCacheDir(), name, hash, fileBytes)) {
    pushStoredTotal.add();
  } else {
    pushRejectedTotal.add();
  }
}

/// Writes all of `data`; plain blocking loop (HTTP responses are small).
void writeAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Answers one already-accepted HTTP connection: reads the request head
/// (bounded), serves workerMetricsHttpResponse for the target.
void serveHttpRequest(int fd) {
  std::string head;
  char buf[1024];
  while (head.size() < 16 * 1024 &&
         head.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    head.append(buf, static_cast<std::size_t>(n));
  }
  // Request line: "<METHOD> <target> HTTP/1.x".
  std::string method;
  std::string target = "/";
  const std::size_t sp1 = head.find(' ');
  if (sp1 != std::string::npos) {
    method = head.substr(0, sp1);
    const std::size_t sp2 = head.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) target = head.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  if (method != "GET") {
    // A worker's HTTP face is read-only; POSTing to it used to be
    // silently dropped by the sniff, now it is an explicit 405.
    writeAll(fd, workerHttpResponse(405, "method not allowed\n"));
    return;
  }
  writeAll(fd, workerMetricsHttpResponse(target));
}

/// True when the first peeked bytes look like the start of an HTTP
/// request (any common method), as opposed to the 'H''W' wire magic.
bool looksLikeHttp(const char* peek, std::size_t n) {
  static constexpr const char* kMethods[] = {"GET ",  "POST", "PUT ",
                                             "DELE",  "HEAD", "OPTI",
                                             "PATC"};
  for (const char* m : kMethods)
    if (n >= 4 && std::memcmp(peek, m, 4) == 0) return true;
  return false;
}

}  // namespace

std::string workerHttpResponse(int status, const std::string& body) {
  std::ostringstream out;
  if (status == 200) {
    out << "HTTP/1.0 200 OK\r\n"
        << "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  } else if (status == 405) {
    out << "HTTP/1.0 405 Method Not Allowed\r\n"
        << "Allow: GET\r\n"
        << "Content-Type: text/plain; charset=utf-8\r\n";
  } else {
    out << "HTTP/1.0 404 Not Found\r\n"
        << "Content-Type: text/plain; charset=utf-8\r\n";
  }
  out << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

std::string workerMetricsHttpResponse(const std::string& target) {
  // Advances even with telemetry disabled, so /metrics always has at
  // least one sample and a scrape of an idle worker is distinguishable
  // from a scrape of nothing.
  scrapesTotal.add();
  if (target != "/metrics") return workerHttpResponse(404, "not found\n");
  std::ostringstream body;
  telemetry::writePrometheus(body, telemetry::Registry::global().snapshot(),
                             telemetry::workerCounters(),
                             telemetry::workerHistograms());
  return workerHttpResponse(200, body.str());
}

int runWorkerLoop(int inFd, int outFd, int faultSlot) {
  ignoreSigpipe();
  registerBuiltinPolicies();

  // Wire v5: a worker serves every spec it has been sent, keyed by the
  // spec hash the Task frames carry — one connection can interleave the
  // tasks of all the concurrent jobs a `hayat serve` scheduler
  // multiplexes onto it.  The handshake is unchanged: the first message
  // must still be a Spec.
  struct ServedSpec {
    ExperimentSpec spec;
    std::vector<RunTask> tasks;
  };
  std::map<std::uint64_t, ServedSpec> specs;
  const auto addSpec = [&specs](const std::string& payload) {
    ServedSpec served;
    try {
      served.spec = decodeSpec(payload);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[worker %d] bad spec: %s\n", ::getpid(),
                   e.what());
      return false;
    }
    served.tasks = ExperimentEngine::expand(served.spec);
    specs[specHash(served.spec)] = std::move(served);
    return true;
  };

  Message msg;
  if (!readMessage(inFd, msg) || msg.type != MsgType::Spec) return 1;
  if (!addSpec(msg.payload)) return 1;

  const WorkerFaults faults = workerFaultsFromEnv(faultSlot);
  long served = 0;

  // Metric values already reported to the coordinator; Result frames
  // carry only what advanced since (telemetry::encode*Deltas).
  std::map<std::string, std::uint64_t> reported;
  std::map<std::string, telemetry::HistogramSnapshot> reportedHists;
  if (telemetry::enabled()) {
    // Fork workers inherit the coordinator's metric values wholesale;
    // baseline them so only this process's work is reported as deltas.
    telemetry::encodeCounterDeltas(reported);
    telemetry::encodeHistogramDeltas(reportedHists);
  }

  while (readMessage(inFd, msg)) {
    if (msg.type == MsgType::Shutdown) return 0;
    if (msg.type == MsgType::Spec) {
      if (!addSpec(msg.payload)) return 1;
      continue;
    }
    if (msg.type == MsgType::TelemetryOn) {
      // Exec'd/remote workers have their own (disabled) telemetry state;
      // the coordinator turns collection on so counters flow back on the
      // Result frames.  No export directory: workers never write files.
      telemetry::setEnabled(true);
      continue;
    }
    if (msg.type == MsgType::CachePush) {
      handleCachePush(msg.payload);
      continue;
    }
    if (msg.type != MsgType::Task) return 1;

    int index = -1;
    std::uint64_t taskHash = 0;
    try {
      decodeTask(msg.payload, index, taskHash);
    } catch (const std::exception&) {
      return 1;
    }
    const auto servedIt = specs.find(taskHash);
    if (servedIt == specs.end() || index < 0 ||
        index >= static_cast<int>(servedIt->second.tasks.size())) {
      if (!writeMessage(outFd, MsgType::TaskError,
                        encodeTaskError(index, "task does not match any "
                                               "spec this worker serves")))
        return 1;
      continue;
    }
    const ServedSpec& serving = servedIt->second;

    if (faults.stallAfter >= 0 && served >= faults.stallAfter) {
      // Fault injection: a wedged worker.  The coordinator's per-task
      // timeout must kill and replace us.
      for (;;) ::pause();
    }

    try {
      const auto started = std::chrono::steady_clock::now();
      const RunResult result = ExperimentEngine::runTask(
          serving.tasks[static_cast<std::size_t>(index)],
          serving.spec.populationSeed);
      std::string metrics;
      if (telemetry::enabled()) {
        taskSeconds.observe(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count());
        metrics = telemetry::encodeCounterDeltas(reported) +
                  telemetry::encodeHistogramDeltas(reportedHists);
      }
      if (faults.delayMs > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(faults.delayMs));
      if (!writeMessage(outFd, MsgType::Result,
                        encodeResult(index, result, metrics)))
        return 1;
    } catch (const std::exception& e) {
      if (!writeMessage(outFd, MsgType::TaskError,
                        encodeTaskError(index, e.what())))
        return 1;
    }

    ++served;
    if (faults.dieAfter >= 0 && served >= faults.dieAfter)
      ::_exit(kFaultDeathExitCode);  // fault injection: die:worker=...
  }
  return 0;  // coordinator hung up
}

std::vector<WorkerEndpoint> parseWorkerSpec(const std::string& text) {
  std::vector<WorkerEndpoint> endpoints;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    start = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (item.empty()) continue;

    WorkerEndpoint ep;
    if (item == "proc" || item.rfind("proc:", 0) == 0) {
      ep.kind = WorkerEndpoint::Kind::Fork;
      ep.count =
          item == "proc" ? 1 : parsePositiveInt(item.substr(5), "count");
    } else if (item == "exec" || item.rfind("exec:", 0) == 0) {
      ep.kind = WorkerEndpoint::Kind::Exec;
      ep.count =
          item == "exec" ? 1 : parsePositiveInt(item.substr(5), "count");
    } else if (item.rfind("tcp:", 0) == 0) {
      ep.kind = WorkerEndpoint::Kind::Tcp;
      const std::string rest = item.substr(4);
      const std::size_t colon = rest.rfind(':');
      HAYAT_REQUIRE(colon != std::string::npos && colon > 0,
                    "worker spec: tcp endpoint needs host:port, got '" +
                        item + "'");
      ep.host = rest.substr(0, colon);
      ep.port = parsePositiveInt(rest.substr(colon + 1), "port");
      HAYAT_REQUIRE(ep.port <= 65535,
                    "worker spec: port out of range in '" + item + "'");
    } else {
      throw Error("worker spec: unknown endpoint '" + item +
                  "' (expected proc:N, exec:N, or tcp:host:port)");
    }
    endpoints.push_back(std::move(ep));
  }
  HAYAT_REQUIRE(!endpoints.empty(), "worker spec: no endpoints in '" + text +
                                        "'");
  return endpoints;
}

void ignoreSigpipe() {
  struct sigaction sa;
  if (::sigaction(SIGPIPE, nullptr, &sa) == 0 && sa.sa_handler == SIG_DFL) {
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
  }
}

int spawnWorker(const WorkerEndpoint& endpoint, int slot, pid_t& pid) {
  pid = -1;
  if (endpoint.kind == WorkerEndpoint::Kind::Tcp)
    return connectTcpWorker(endpoint.host, endpoint.port, 2000);

  // An exec'd child's argv and environment are built before fork(): until
  // it execs, the child of a threaded process makes only
  // async-signal-safe calls.  A forked child runs the worker loop on the
  // inherited image, which is safe because glibc's allocator, the
  // telemetry mutexes and the shared start-up caches' mutexes
  // (installForkHandlers) are held across fork().
  const bool exec = endpoint.kind == WorkerEndpoint::Kind::Exec;
  std::string binary = "hayat";
  if (const char* bin = std::getenv("HAYAT_WORKER_BIN"))
    if (*bin) binary = bin;
  const std::string execError = "[worker] cannot exec '" + binary + "'\n";
  std::string worker = "worker", stdio = "--stdio";
  char* argv[] = {binary.data(), worker.data(), stdio.data(), nullptr};
  std::vector<std::string> env;
  std::vector<char*> envp;
  if (exec) {
    constexpr const char kSlotVar[] = "HAYAT_FAULT_WORKER=";
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, kSlotVar, sizeof(kSlotVar) - 1) != 0)
        env.emplace_back(*e);
    if (slot >= 0) env.push_back(kSlotVar + std::to_string(slot));
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
  }

  telemetry::installForkHandlers();
  static std::mutex spawnMutex;
  const std::scoped_lock lock(spawnMutex);
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    return -1;
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return -1;
  }
  if (child == 0) {
    // Keep stdio and the worker socket (stdin/stdout for exec, fd 3 for
    // fork); dup2 clears CLOEXEC on the copies.
    const int keepBelow = exec ? STDERR_FILENO + 1 : 4;
    if (exec) {
      ::dup2(sv[1], STDIN_FILENO);
      ::dup2(sv[1], STDOUT_FILENO);
    } else {
      ::dup2(sv[1], 3);
    }
    if (::close_range(static_cast<unsigned>(keepBelow), ~0U, 0) != 0)
      for (int fd = keepBelow; fd < 1024; ++fd) ::close(fd);
    if (exec) {
      ::execvpe(argv[0], argv, envp.data());
      (void)!::write(STDERR_FILENO, execError.data(), execError.size());
      ::_exit(127);
    }
    disarmCoordinatorFaults();
    ::_exit(runWorkerLoop(3, 3, slot));
  }
  ::close(sv[1]);
  pid = child;
  return sv[0];
}

int serveWorkerOnListenSocket(int listenFd) {
  for (;;) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    // One listen port, two protocols: wire coordinators open with the
    // 'H''W' magic, HTTP scrapers with a method token.  Peek without
    // consuming so the wire codec still sees the full frame.  Any
    // recognized HTTP method is routed to the HTTP handler (non-GET
    // answers 405 there) instead of being fed to the wire codec, whose
    // bad-magic error used to read as a silent hangup.
    char peek[4] = {0};
    ssize_t got;
    do {
      got = ::recv(fd, peek, sizeof(peek), MSG_PEEK | MSG_WAITALL);
    } while (got < 0 && errno == EINTR);
    if (got == static_cast<ssize_t>(sizeof(peek)) &&
        looksLikeHttp(peek, sizeof(peek))) {
      serveHttpRequest(fd);
    } else {
      runWorkerLoop(fd, fd);
    }
    ::close(fd);
  }
}

int workerServeStdio() {
  // Re-point fd 1 at stderr so stray library prints cannot corrupt the
  // protocol stream.
  const int proto = ::dup(STDOUT_FILENO);
  if (proto < 0) return 1;
  ::dup2(STDERR_FILENO, STDOUT_FILENO);
  const int code = runWorkerLoop(STDIN_FILENO, proto);
  ::close(proto);
  return code;
}

int workerListenTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 8) != 0) {
    std::fprintf(stderr, "[worker] cannot listen on port %d\n", port);
    ::close(fd);
    return 1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  std::fprintf(stderr, "[worker %d] listening on port %d\n", ::getpid(),
               static_cast<int>(ntohs(addr.sin_port)));
  const int code = serveWorkerOnListenSocket(fd);
  ::close(fd);
  return code;
}

int connectTcpWorker(const std::string& host, int port, int timeoutMs) {
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* list = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &list) != 0)
    return -1;

  int fd = -1;
  for (struct addrinfo* ai = list; ai != nullptr && fd < 0;
       ai = ai->ai_next) {
    const int s = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                           ai->ai_protocol);
    if (s < 0) continue;
    const int flags = ::fcntl(s, F_GETFL, 0);
    ::fcntl(s, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(s, ai->ai_addr, ai->ai_addrlen);
    bool ok = rc == 0;
    if (!ok && errno == EINPROGRESS) {
      struct pollfd pfd;
      pfd.fd = s;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      if (::poll(&pfd, 1, timeoutMs) == 1) {
        int err = 0;
        socklen_t errLen = sizeof(err);
        ok = ::getsockopt(s, SOL_SOCKET, SO_ERROR, &err, &errLen) == 0 &&
             err == 0;
      }
    }
    if (ok) {
      ::fcntl(s, F_SETFL, flags);  // back to blocking for the wire codec
      fd = s;
    } else {
      ::close(s);
    }
  }
  ::freeaddrinfo(list);
  return fd;
}

}  // namespace hayat::engine
