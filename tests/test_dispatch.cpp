// Distributed ExperimentEngine: wire protocol, endpoint parsing, and the
// coordinator/worker fan-out.
//
// The contract under test is the strong one from engine.hpp: the merged
// SweepTable is *bit-identical* to a serial in-process run for any worker
// topology (forked processes, exec'd binaries, TCP workers), and the
// scheduler's lanes survive their fleet — worker crashes, wedged workers,
// out-of-protocol answers, and an entirely unreachable fleet all degrade
// without changing a byte of the result.  Recovery is observed through
// the scheduler's hayat_serve_lane_* / hayat_serve_tasks_* counters.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/system.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "engine/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/wire.hpp"
#include "engine/worker_proc.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/application.hpp"

namespace hayat::engine {
namespace {

/// Sets an environment variable for the lifetime of the guard (fault
/// plans and HAYAT_WORKER_BIN must not leak between tests).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Small-but-real spec: 2 chips x 2 policies = 4 tasks, 2 epochs each.
ExperimentSpec testSpec() {
  ExperimentSpec spec;
  spec.name = "dispatch-test";
  spec.system.population.coreGrid = {4, 4};
  spec.lifetime.horizon = 0.5;
  spec.lifetime.epochLength = 0.25;
  spec.policies = {{"VAA", {}}, {"Hayat", {}}};
  spec.chips = {0, 1};
  spec.darkFractions = {0.5};
  return spec;
}

/// Canonical bytes of a table via the shared run-record codec — the
/// literal form of "bit-identical" (every column, %.17g doubles).
std::string tableBytes(const SweepTable& table) {
  std::ostringstream out;
  for (const RunResult& r : table.runs) writeRunResult(out, r);
  return out.str();
}

/// Serial in-process reference run (guards against a leaked
/// HAYAT_DISPATCH turning the reference itself distributed).
SweepTable serialReference(const ExperimentSpec& spec) {
  ::unsetenv("HAYAT_DISPATCH");
  EngineConfig config;
  config.workers = 1;
  config.cache = false;
  return ExperimentEngine(config).run(spec);
}

SweepTable runDispatched(const ExperimentSpec& spec,
                         const std::string& dispatch) {
  EngineConfig config;
  config.workers = 1;
  config.cache = false;
  config.dispatch = dispatch;
  return ExperimentEngine(config).run(spec);
}

/// Runs `spec` on a scheduler of its own (cache off) — for the knobs the
/// engine does not expose: task timeout and respawn budget.
SweepTable runOnScheduler(const ExperimentSpec& spec,
                          SchedulerConfig config) {
  config.cache = false;
  SweepScheduler scheduler(config);
  const std::shared_ptr<SpecRun> run = scheduler.attach(spec, 0, "test");
  for (int i = 0; i < run->taskCount(); ++i)
    EXPECT_TRUE(run->waitRow(i, 120000).has_value()) << "row " << i;
  return run->table();
}

/// Task timeout for the tests whose lanes respawn workers while other
/// lanes run tasks locally.  Under ASan, whose allocator installs no fork
/// handlers, such a respawned child can hang inside ASan; the timeout
/// bounds that stall (tasks here take milliseconds).
constexpr double kRespawnTestTimeoutSeconds = 10.0;

std::uint64_t counter(const char* name) {
  return telemetry::Registry::global().counter(name).value();
}

/// Advance of the scheduler's recovery counters across a scope.
class LaneCounters {
 public:
  LaneCounters()
      : deaths_(counter("hayat_serve_lane_deaths_total")),
        respawns_(counter("hayat_serve_lane_respawns_total")),
        remote_(counter("hayat_serve_tasks_remote_total")),
        fallback_(counter("hayat_serve_tasks_local_fallback_total")) {}
  std::uint64_t deaths() const {
    return counter("hayat_serve_lane_deaths_total") - deaths_;
  }
  std::uint64_t respawns() const {
    return counter("hayat_serve_lane_respawns_total") - respawns_;
  }
  std::uint64_t remote() const {
    return counter("hayat_serve_tasks_remote_total") - remote_;
  }
  std::uint64_t fallback() const {
    return counter("hayat_serve_tasks_local_fallback_total") - fallback_;
  }

 private:
  std::uint64_t deaths_, respawns_, remote_, fallback_;
};

// ---------------------------------------------------------------- framing

TEST(WireFramingTest, MessagesRoundTripAndEofIsADeadPeer) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  ASSERT_TRUE(writeMessage(fds[1], MsgType::Task, "index=3\nhash=0\n"));
  ASSERT_TRUE(writeMessage(fds[1], MsgType::Shutdown, ""));

  Message msg;
  ASSERT_TRUE(readMessage(fds[0], msg));
  EXPECT_EQ(msg.type, MsgType::Task);
  EXPECT_EQ(msg.payload, "index=3\nhash=0\n");
  ASSERT_TRUE(readMessage(fds[0], msg));
  EXPECT_EQ(msg.type, MsgType::Shutdown);
  EXPECT_TRUE(msg.payload.empty());

  ::close(fds[1]);
  EXPECT_FALSE(readMessage(fds[0], msg));  // EOF
  ::close(fds[0]);
}

TEST(WireFramingTest, BadMagicOrVersionIsADeadPeer) {
  for (const bool badVersion : {false, true}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    char header[8] = {};
    header[0] = badVersion ? 'H' : 'X';
    header[1] = 'W';
    header[2] = static_cast<char>(badVersion ? kWireVersion + 1
                                             : kWireVersion);
    header[3] = static_cast<char>(MsgType::Task);
    ASSERT_EQ(::write(fds[1], header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    Message msg;
    EXPECT_FALSE(readMessage(fds[0], msg));
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST(WireFramingTest, TimedReadDistinguishesTimeoutFromDeath) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  Message msg;
  bool timedOut = false;
  EXPECT_FALSE(readMessage(fds[0], msg, 20, timedOut));
  EXPECT_TRUE(timedOut);  // silence, not death

  ASSERT_TRUE(writeMessage(fds[1], MsgType::TaskError, "index=0\nboom\n"));
  EXPECT_TRUE(readMessage(fds[0], msg, 5000, timedOut));
  EXPECT_FALSE(timedOut);
  EXPECT_EQ(msg.type, MsgType::TaskError);

  ::close(fds[1]);
  EXPECT_FALSE(readMessage(fds[0], msg, 5000, timedOut));
  EXPECT_FALSE(timedOut);  // EOF must not masquerade as a timeout
  ::close(fds[0]);
}

// ----------------------------------------------------------------- codecs

TEST(WireCodecTest, SpecRoundTripPreservesSignatureHashAndName) {
  ExperimentSpec spec = testSpec();
  spec.repetitions = 2;
  spec.darkFractions = {0.25, 0.5};
  spec.policies[1].params["wearGamma"] = 2.5;
  spec.lifetime.dvfs = FrequencyLadder({2.0e9, 2.5e9, 3.0e9});

  const ExperimentSpec decoded = decodeSpec(encodeSpec(spec));
  EXPECT_EQ(decoded.name, spec.name);
  EXPECT_EQ(specSignature(decoded), specSignature(spec));
  EXPECT_EQ(specHash(decoded), specHash(spec));
  // The decoded spec expands to the same task product.
  EXPECT_EQ(ExperimentEngine::expand(decoded).size(),
            ExperimentEngine::expand(spec).size());
}

TEST(WireCodecTest, TaskAndTaskErrorRoundTrip) {
  int index = -1;
  std::uint64_t hash = 0;
  decodeTask(encodeTask(7, 0xDEADBEEFCAFEF00Dull), index, hash);
  EXPECT_EQ(index, 7);
  EXPECT_EQ(hash, 0xDEADBEEFCAFEF00Dull);

  std::string message;
  decodeTaskError(encodeTaskError(3, "boom\nwith detail"), index, message);
  EXPECT_EQ(index, 3);
  EXPECT_EQ(message, "boom with detail");  // newlines flattened

  EXPECT_THROW(decodeTask("hash=0\n", index, hash), Error);
}

TEST(WireCodecTest, ResultRoundTripsBitExactly) {
  const ExperimentSpec spec = testSpec();
  const std::vector<RunTask> tasks = ExperimentEngine::expand(spec);
  const RunResult computed =
      ExperimentEngine::runTask(tasks[1], spec.populationSeed);

  int index = -1;
  RunResult decoded;
  decodeResult(encodeResult(1, computed), index, decoded);
  EXPECT_EQ(index, 1);

  std::ostringstream a, b;
  writeRunResult(a, computed);
  writeRunResult(b, decoded);
  EXPECT_EQ(a.str(), b.str());

  EXPECT_THROW(decodeResult("index=0\ngarbage\n", index, decoded), Error);
}

TEST(WireCodecTest, FixedMixSpecsRefuseToCrossTheWire) {
  ExperimentSpec spec = testSpec();
  spec.lifetime.fixedMix = WorkloadMix{};
  EXPECT_THROW(encodeSpec(spec), Error);
}

// ----------------------------------------------------------- spec parsing

TEST(ParseWorkerSpecTest, AcceptsEveryEndpointKindAndLists) {
  auto eps = parseWorkerSpec("proc:4");
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].kind, WorkerEndpoint::Kind::Fork);
  EXPECT_EQ(eps[0].count, 4);

  eps = parseWorkerSpec("proc");  // bare kind defaults to one worker
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].count, 1);

  eps = parseWorkerSpec("exec:2");
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].kind, WorkerEndpoint::Kind::Exec);
  EXPECT_EQ(eps[0].count, 2);

  eps = parseWorkerSpec("tcp:10.0.0.5:7707");
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].kind, WorkerEndpoint::Kind::Tcp);
  EXPECT_EQ(eps[0].host, "10.0.0.5");
  EXPECT_EQ(eps[0].port, 7707);

  eps = parseWorkerSpec("proc:2,tcp:hostA:7707,exec:1");
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].kind, WorkerEndpoint::Kind::Fork);
  EXPECT_EQ(eps[1].kind, WorkerEndpoint::Kind::Tcp);
  EXPECT_EQ(eps[2].kind, WorkerEndpoint::Kind::Exec);
}

TEST(ParseWorkerSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parseWorkerSpec(""), Error);
  EXPECT_THROW(parseWorkerSpec(","), Error);
  EXPECT_THROW(parseWorkerSpec("bogus:1"), Error);
  EXPECT_THROW(parseWorkerSpec("proc:0"), Error);
  EXPECT_THROW(parseWorkerSpec("proc:x"), Error);
  EXPECT_THROW(parseWorkerSpec("proc:-2"), Error);
  EXPECT_THROW(parseWorkerSpec("tcp:hostonly"), Error);
  EXPECT_THROW(parseWorkerSpec("tcp::7707"), Error);
  EXPECT_THROW(parseWorkerSpec("tcp:host:0"), Error);
  EXPECT_THROW(parseWorkerSpec("tcp:host:70000"), Error);
}

// ------------------------------------------------------------ determinism

TEST(DispatchDeterminismTest, ForkedWorkersAreBitIdenticalToSerial) {
  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  ASSERT_EQ(serial.runs.size(), 4u);

  const SweepTable dispatched = runDispatched(spec, "proc:2");
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));
}

TEST(DispatchDeterminismTest, TcpWorkerIsBitIdenticalToSerial) {
  // Parent binds an ephemeral port; a forked child serves the worker
  // protocol on it, exactly like `hayat worker --listen`.
  const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listenFd, 0);
  const int one = 1;
  ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listenFd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listenFd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(serveWorkerOnListenSocket(listenFd));
  ::close(listenFd);

  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  const SweepTable dispatched =
      runDispatched(spec, "tcp:127.0.0.1:" + std::to_string(port));
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
}

TEST(DispatchDeterminismTest, ExecWorkersRunTheRealBinary) {
  // ctest runs from build/tests; the CLI binary lives in build/tools.
  const std::filesystem::path binary =
      std::filesystem::absolute("../tools/hayat");
  if (!std::filesystem::exists(binary))
    GTEST_SKIP() << "hayat CLI binary not found at " << binary;

  const ScopedEnv bin("HAYAT_WORKER_BIN", binary.string());
  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  const SweepTable dispatched = runDispatched(spec, "exec:2");
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));
}

TEST(DispatchDeterminismTest, RetiredParamUnderProcWorkersFailsLikeInProcess) {
  // The retired key, built from pieces: nothing in the code base names it.
  const std::string retired = std::string("prune") + "Radius";
  ExperimentSpec spec = testSpec();
  spec.chips = {0};
  spec.policies = {{"Hayat", {{retired, 4.0}}}};
  const auto errorOf = [&](const std::string& dispatch) -> std::string {
    try {
      (void)runDispatched(spec, dispatch);
    } catch (const Error& e) {
      return e.what();
    }
    return "(no error)";
  };
  const std::string inProcess = errorOf("");
  EXPECT_NE(inProcess.find("no parameter \"" + retired + "\""),
            std::string::npos)
      << inProcess;
  EXPECT_EQ(errorOf("proc:1"), inProcess);
}

// ------------------------------------------------------ fork safety, metrics

namespace {

/// One cheap VAA task on cheap aging tables.
ExperimentSpec forkProbeSpec() {
  ExperimentSpec spec = testSpec();
  spec.chips = {0};
  spec.policies = {{"VAA", {}}};
  spec.lifetime.horizon = 0.25;  // one cheap task
  spec.system.agingTable.temperaturePoints = 3;  // and cheap aging tables
  spec.system.agingTable.dutyPoints = 3;
  spec.system.pathsPerCore = 1;
  return spec;
}

/// Forks 200 workers, each sent `spec`'s first task, while another
/// thread runs `background(0)`, `background(1)`, ... with telemetry on;
/// returns how many answered.
int workersAnsweringWhile(
    const ExperimentSpec& spec,
    const std::function<void(std::uint64_t)>& background) {
  const std::string payload = encodeSpec(spec);
  const std::uint64_t hash = specHash(spec);
  telemetry::setEnabled(true);
  std::atomic<bool> done{false};
  std::thread other([&done, &background] {
    for (std::uint64_t i = 0; !done.load(); ++i) background(i);
  });
  int answered = 0;
  for (int i = 0; i < 200; ++i) {
    pid_t pid = -1;
    const int fd = spawnWorker(WorkerEndpoint{}, -1, pid);
    if (fd < 0) break;
    Message msg;
    bool timedOut = false;
    const bool ok = writeMessage(fd, MsgType::Spec, payload) &&
                    writeMessage(fd, MsgType::Task, encodeTask(0, hash)) &&
                    readMessage(fd, msg, 30000, timedOut) &&
                    msg.type == MsgType::Result;
    writeMessage(fd, MsgType::Shutdown, "");
    ::close(fd);
    if (!ok) ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    if (!ok) {
      ADD_FAILURE() << "worker " << i << (timedOut ? " hung" : " died");
      break;
    }
    ++answered;
  }
  done.store(true);
  other.join();
  telemetry::setEnabled(false);
  return answered;
}

}  // namespace

TEST(ForkSafetyTest, WorkersForkedDuringCounterLookupsAllAnswer) {
  // A worker takes the metric registry mutex at start-up when telemetry
  // is on, and the start-up memo mutexes in its first task.
  // Were it forked while another thread held one of them, it would hang
  // there; the fork handlers hold them all across fork(), so each of
  // these workers answers its first task.
#if defined(__SANITIZE_ADDRESS__)
  // ASan's allocator installs no fork handlers, so a child forked while
  // the other thread allocates can hang inside ASan itself.  TSan, which
  // does handle fork(), runs this test.
  GTEST_SKIP() << "ASan's allocator is not fork-safe under threads";
#endif
  const ExperimentSpec spec = forkProbeSpec();
  SystemConfig cycled = spec.system;
  const int answered = workersAnsweringWhile(spec, [&](std::uint64_t i) {
    const telemetry::Span span("test.fork_probe");
    telemetry::Registry::global()
        .counter("hayat_test_fork_probe_" + std::to_string(i % 8))
        .add();
    (void)telemetry::workerCounters();
    // 32 populations cycle through the 16-entry aging-table memo, so
    // every create fills it under its mutex.
    (void)System::create(spec.system, spec.populationSeed + 1 + i % 32);
    // 36 core grids cycle through the 8-entry sampler memo and the
    // 32-entry transient-operator memo, so those fill and evict too.
    cycled.population.coreGrid = GridShape(1 + static_cast<int>(i % 6),
                                           1 + static_cast<int>(i / 6 % 6));
    const System grid = System::create(cycled, spec.populationSeed);
    (void)TransientSolver(grid.thermal(), cycled.epoch.step);
  });
  EXPECT_EQ(answered, 200);
}

TEST(ForkSafetyTest, WorkersForkedDuringTasksAllAnswer) {
  // The other thread runs tiny tasks, so the lifetime, epoch, policy,
  // aging, DTM and task-pool metrics update while workers fork.  Their
  // handles are bound at static initialisation, so no first-use guard
  // can be in flight at fork() and each worker answers its first task.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Neither sanitizer's allocator is held across fork() (GCC 12's TSan
  // takes only its thread-registry, slot and report locks), so a worker
  // forked while a task allocates can hang inside the sanitizer itself.
  // The plain build runs this test; TSan runs the lookups test above.
  GTEST_SKIP() << "the sanitizer's allocator is not fork-safe under threads";
#endif
  const ExperimentSpec spec = forkProbeSpec();
  ExperimentSpec both = spec;
  both.policies = {{"VAA", {}}, {"Hayat", {}}};
  const std::vector<RunTask> tasks = ExperimentEngine::expand(both);
  const int answered = workersAnsweringWhile(spec, [&](std::uint64_t i) {
    // Each policy in turn, alternately alone and through the task pool.
    const RunTask& task = tasks[i / 2 % tasks.size()];
    if (i % 2 == 0)
      (void)ExperimentEngine::runTask(task, spec.populationSeed);
    else
      (void)ExperimentEngine::runTasks({&task, 1}, spec.populationSeed, 1, 1);
  });
  EXPECT_EQ(answered, 200);
}

TEST(DispatchTelemetryTest, ProcLaneMergesTheWorkerTaskHistogram) {
  const ExperimentSpec spec = testSpec();  // 4 tasks
  telemetry::resetWorkerCountersForTest();
  telemetry::setEnabled(true);
  SchedulerConfig config;
  config.dispatch = "proc:1";
  const SweepTable table = runOnScheduler(spec, config);
  telemetry::setEnabled(false);
  ASSERT_EQ(table.runs.size(), 4u);

  std::uint64_t observed = 0;
  for (const telemetry::HistogramSnapshot& h : telemetry::workerHistograms())
    if (h.name == "hayat_worker_task_seconds") observed = h.count;
  EXPECT_EQ(observed, 4u);  // one observation per remotely run task
}

// --------------------------------------------------------- fault handling

TEST(CrashRecoveryTest, WorkerDeathsAreRespawnedAndTableUnchanged) {
  ExperimentSpec spec = testSpec();
  spec.darkFractions = {0.25, 0.5};  // 8 tasks: some lane takes >= 3
  const SweepTable serial = serialReference(spec);

  // Every worker incarnation _exit(43)s after serving one result: a lane
  // sees the death on its next task, runs that task itself, and respawns
  // its worker for the one after — so a lane with three tasks respawns.
  const ScopedEnv plan("HAYAT_FAULT_PLAN",
                       "die:worker=0,after=1;die:worker=1,after=1");
  SchedulerConfig config;
  config.dispatch = "proc:2";
  config.taskTimeoutSeconds = kRespawnTestTimeoutSeconds;
  const LaneCounters lanes;
  const SweepTable table = runOnScheduler(spec, config);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(lanes.deaths(), 1u);
  EXPECT_GE(lanes.respawns(), 1u);
  EXPECT_EQ(lanes.remote() + lanes.fallback(), 8u);
}

TEST(CrashRecoveryTest, WedgedWorkerIsTimedOutAndItsTaskRequeued) {
  ExperimentSpec spec = testSpec();
  spec.chips = {0};  // 2 tasks: the worker serves one, wedges on the next
  const SweepTable serial = serialReference(spec);

  const ScopedEnv plan("HAYAT_FAULT_PLAN", "stall:worker=0,after=1");
  SchedulerConfig config;
  config.dispatch = "proc:1";
  config.taskTimeoutSeconds = 2.0;
  const LaneCounters lanes;
  const SweepTable table = runOnScheduler(spec, config);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(lanes.deaths(), 1u);    // the wedged worker was killed
  EXPECT_EQ(lanes.fallback(), 1u);  // and its lane ran the task itself
}

TEST(DegradationTest, UnreachableFleetFallsBackToLocalThreads) {
  // Find a port with nothing listening: bind an ephemeral port, then
  // close it before dialing.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(probe);

  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  const SweepTable degraded =
      runDispatched(spec, "tcp:127.0.0.1:" + std::to_string(port));
  EXPECT_EQ(tableBytes(serial), tableBytes(degraded));
}

// ---------------------------------------------------- fault plan grammar

TEST(FaultPlanTest, ParsesEveryVerb) {
  const FaultPlan plan = parseFaultPlan(
      "drop:frame=3;delay:worker=1,ms=500;corrupt:frame=7;"
      "die:worker=2,after=5;stall:worker=0,after=2");
  ASSERT_EQ(plan.rules.size(), 5u);
  EXPECT_EQ(plan.rules[0].kind, FaultRule::Kind::Drop);
  EXPECT_EQ(plan.rules[0].frame, 3);
  EXPECT_EQ(plan.rules[1].kind, FaultRule::Kind::Delay);
  EXPECT_EQ(plan.rules[1].worker, 1);
  EXPECT_EQ(plan.rules[1].ms, 500);
  EXPECT_EQ(plan.rules[2].kind, FaultRule::Kind::Corrupt);
  EXPECT_EQ(plan.rules[2].frame, 7);
  EXPECT_EQ(plan.rules[3].kind, FaultRule::Kind::Die);
  EXPECT_EQ(plan.rules[3].worker, 2);
  EXPECT_EQ(plan.rules[3].after, 5);
  EXPECT_EQ(plan.rules[4].kind, FaultRule::Kind::Stall);
  EXPECT_EQ(plan.rules[4].worker, 0);
  EXPECT_EQ(plan.rules[4].after, 2);
  EXPECT_TRUE(parseFaultPlan("").empty());
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_THROW(parseFaultPlan("explode:frame=1"), Error);
  EXPECT_THROW(parseFaultPlan("drop"), Error);            // no args
  EXPECT_THROW(parseFaultPlan("drop:worker=1"), Error);   // wrong key
  EXPECT_THROW(parseFaultPlan("drop:frame=0"), Error);    // 1-based
  EXPECT_THROW(parseFaultPlan("drop:frame=x"), Error);
  EXPECT_THROW(parseFaultPlan("delay:worker=1"), Error);  // missing ms
  EXPECT_THROW(parseFaultPlan("die:worker=-1,after=1"), Error);
  EXPECT_THROW(parseFaultPlan("die:worker=1,after=1,bogus=2"), Error);
}

// ----------------------------------------------------- wire codec fuzzing

namespace {

/// Deterministic xorshift64* byte stream — the fuzz tests must replay
/// identically run after run.
class FuzzBytes {
 public:
  explicit FuzzBytes(std::uint64_t seed) : state_(seed | 1) {}
  unsigned char next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return static_cast<unsigned char>((state_ * 0x2545F4914F6CDD1Dull) >>
                                      56);
  }
  std::string blob(std::size_t n) {
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(next());
    return out;
  }

 private:
  std::uint64_t state_;
};

/// Runs `decode` over every truncated prefix (strided for long payloads),
/// a bit-flipped copy, and pure garbage.  The decoders may accept a
/// prefix that happens to land on a record boundary; what they must
/// never do is crash or read out of bounds — which the sanitizer CI job
/// turns into a hard failure.
template <typename Decode>
void fuzzDecoder(const std::string& valid, Decode decode, FuzzBytes& fuzz) {
  const std::size_t stride = std::max<std::size_t>(1, valid.size() / 64);
  for (std::size_t len = 0; len < valid.size(); len += stride) {
    try {
      decode(valid.substr(0, len));
    } catch (const std::exception&) {
    }
  }
  std::string flipped = valid;
  for (int i = 0; i < 8 && !flipped.empty(); ++i)
    flipped[fuzz.next() % flipped.size()] ^= static_cast<char>(
        1u << (fuzz.next() % 8));
  try {
    decode(flipped);
  } catch (const std::exception&) {
  }
  for (const std::size_t n : {std::size_t{1}, std::size_t{17},
                              std::size_t{256}}) {
    try {
      decode(fuzz.blob(n));
    } catch (const std::exception&) {
    }
  }
}

}  // namespace

TEST(WireFuzzTest, EveryDecoderSurvivesTruncationAndGarbage) {
  FuzzBytes fuzz(0x48617961745F5052ull);
  const ExperimentSpec spec = testSpec();
  const std::vector<RunTask> tasks = ExperimentEngine::expand(spec);
  const RunResult computed =
      ExperimentEngine::runTask(tasks[0], spec.populationSeed);

  fuzzDecoder(encodeSpec(spec), [](const std::string& p) { decodeSpec(p); },
              fuzz);
  fuzzDecoder(encodeTask(5, specHash(spec)), [](const std::string& p) {
    int index;
    std::uint64_t hash;
    decodeTask(p, index, hash);
  }, fuzz);
  fuzzDecoder(
      encodeResult(1, computed,
                   "c,hayat_lifetime_runs_total,3\n"
                   "h,hayat_worker_task_seconds,2,0.5,0.01:0,1:2,+Inf:0\n"),
      [](const std::string& p) {
        int index;
        RunResult r;
        telemetry::MetricDeltas deltas;
        decodeResult(p, index, r, &deltas);
      },
      fuzz);
  fuzzDecoder(encodeTaskError(2, "boom"), [](const std::string& p) {
    int index;
    std::string message;
    decodeTaskError(p, index, message);
  }, fuzz);
  fuzzDecoder(encodeCachePush("dispatch-test", specHash(spec),
                              "# hayat-result-cache v3\npayload\nbytes"),
              [](const std::string& p) {
                std::string name;
                std::uint64_t hash;
                std::string bytes;
                decodeCachePush(p, name, hash, bytes);
              },
              fuzz);

  // Decoders must reject the trivially hostile inputs loudly, not just
  // quietly survive them.
  int index;
  std::uint64_t hash;
  RunResult r;
  std::string text;
  EXPECT_THROW(decodeTask("", index, hash), Error);
  EXPECT_THROW(decodeResult("", index, r), Error);
  EXPECT_THROW(decodeTaskError("", index, text), Error);
  EXPECT_THROW(decodeCachePush("", text, hash, text), Error);
  EXPECT_THROW(decodeSpec(""), std::exception);
}

TEST(WireFuzzTest, FramingRejectsGarbageStreams) {
  FuzzBytes fuzz(0xDEC0DEDBADC0FFEEull);
  for (int round = 0; round < 16; ++round) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string noise = fuzz.blob(64);
    ASSERT_EQ(::write(fds[1], noise.data(), noise.size()),
              static_cast<ssize_t>(noise.size()));
    ::close(fds[1]);
    Message msg;
    // Random bytes essentially never spell 'H''W'<version>; a frame that
    // does pass framing still has a bounded, length-checked payload.
    while (readMessage(fds[0], msg)) {
    }
    ::close(fds[0]);
  }
}

TEST(WireCodecTest, CachePushRoundTripsAndPinsTheCacheVersion) {
  // Payload bytes are arbitrary binary: NULs and newlines included.
  std::string fileBytes = "# hayat-result-cache v" +
                          std::to_string(kCacheFormatVersion) + "\n";
  fileBytes += std::string("\0\x01\xff" "binary\nlines\n", 16);

  const std::string payload =
      encodeCachePush("sweep-a", 0xDEADBEEFCAFEF00Dull, fileBytes);
  std::string name;
  std::uint64_t hash = 0;
  std::string decoded;
  decodeCachePush(payload, name, hash, decoded);
  EXPECT_EQ(name, "sweep-a");
  EXPECT_EQ(hash, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(decoded, fileBytes);

  // A frame stamped with a different cache format version must be
  // rejected before any bytes reach disk.
  const std::string stamp =
      "cache.version=" + std::to_string(kCacheFormatVersion);
  std::string wrongVersion = payload;
  ASSERT_EQ(wrongVersion.compare(0, stamp.size(), stamp), 0);
  wrongVersion.replace(0, stamp.size(),
                       "cache.version=" +
                           std::to_string(kCacheFormatVersion + 1));
  EXPECT_THROW(decodeCachePush(wrongVersion, name, hash, decoded), Error);

  // Truncated payloads (byte count oversells the remaining bytes).
  EXPECT_THROW(decodeCachePush(payload.substr(0, payload.size() - 4), name,
                               hash, decoded),
               Error);
}

// ----------------------------------------------------------------- lanes

TEST(LaneTest, SlowWorkerDoesNotHoldBackTheFleet) {
  const ExperimentSpec spec = testSpec();  // 4 tasks
  const SweepTable serial = serialReference(spec);

  // Worker 1 holds every Result for kDelayMs.  Lanes pull a task only
  // when idle, so lane 1 sits on its first task while lane 0 computes
  // the other three — three rows are done before lane 1 can answer.
  constexpr int kDelayMs = 2000;
  const ScopedEnv plan("HAYAT_FAULT_PLAN",
                       "delay:worker=1,ms=" + std::to_string(kDelayMs));
  SchedulerConfig config;
  config.dispatch = "proc:2";
  config.cache = false;
  const LaneCounters lanes;
  SweepScheduler scheduler(config);
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<SpecRun> run = scheduler.attach(spec, 0, "test");
  while (run->completedTasks() < 3 &&
         std::chrono::steady_clock::now() - start <
             std::chrono::milliseconds(kDelayMs))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(run->completedTasks(), 3) << "lane 0 waited on the slow lane";
  for (int i = 0; i < run->taskCount(); ++i)
    ASSERT_TRUE(run->waitRow(i, 120000).has_value()) << "row " << i;

  EXPECT_EQ(tableBytes(serial), tableBytes(run->table()));
  EXPECT_EQ(lanes.deaths(), 0u);  // slow is not dead
  EXPECT_EQ(lanes.remote(), 4u);
}

namespace {

/// Binds a loopback listen socket on an ephemeral port.
int bindLoopback(int& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  port = ntohs(addr.sin_port);
  return fd;
}

std::string slurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A hostile-but-plausible worker: serves the protocol correctly except
/// that every Result names the wrong task index.
int wrongIndexWorker(int fd) {
  Message msg;
  if (!readMessage(fd, msg) || msg.type != MsgType::Spec) return 1;
  const ExperimentSpec spec = decodeSpec(msg.payload);
  const std::vector<RunTask> tasks = ExperimentEngine::expand(spec);
  while (readMessage(fd, msg)) {
    if (msg.type == MsgType::Shutdown) return 0;
    if (msg.type != MsgType::Task) continue;
    int index = -1;
    std::uint64_t taskHash = 0;
    decodeTask(msg.payload, index, taskHash);
    const RunResult result = ExperimentEngine::runTask(
        tasks[static_cast<std::size_t>(index)], spec.populationSeed);
    if (!writeMessage(fd, MsgType::Result, encodeResult(index + 1, result)))
      return 1;
  }
  return 0;
}

}  // namespace

TEST(LaneTest, WrongIndexAnswerKillsTheWorkerAndKeepsTheTable) {
  const ExperimentSpec spec = testSpec();  // 4 tasks
  const SweepTable serial = serialReference(spec);

  // The worker accepts one connection and then closes its port, so once
  // the lane kills it every redial is refused.
  int port = 0;
  const int listenFd = bindLoopback(port);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    ::close(listenFd);
    ::_exit(fd < 0 ? 1 : wrongIndexWorker(fd));
  }
  ::close(listenFd);

  const LaneCounters lanes;
  const SweepTable table =
      runDispatched(spec, "tcp:127.0.0.1:" + std::to_string(port));

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(lanes.deaths(), 1u);
  EXPECT_EQ(lanes.remote(), 0u);  // no mislabeled row reached the table

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
}

// ------------------------------------------- injected coordinator faults

TEST(FaultInjectionTest, DroppedTaskFrameIsRecoveredByTheTimeout) {
  ExperimentSpec spec = testSpec();
  spec.chips = {0};  // 2 tasks
  const SweepTable serial = serialReference(spec);

  // Frame 1 is the Spec; frame 2 is Task 0, swallowed at the transport —
  // the worker sees silence, so only the lane's per-task timeout can
  // save the task.
  const ScopedEnv plan("HAYAT_FAULT_PLAN", "drop:frame=2");
  SchedulerConfig config;
  config.dispatch = "proc:1";
  config.taskTimeoutSeconds = 1.0;
  const LaneCounters lanes;
  const SweepTable table = runOnScheduler(spec, config);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(lanes.deaths(), 1u);  // the timeout kill
  EXPECT_GE(lanes.fallback(), 1u);
  EXPECT_GE(lanes.respawns(), 1u);
}

TEST(FaultInjectionTest, CorruptedTaskFrameKillsAndRespawnsTheWorker) {
  ExperimentSpec spec = testSpec();
  spec.chips = {0};  // 2 tasks
  const SweepTable serial = serialReference(spec);

  // Frame 2 (Task 0) keeps valid framing but a mangled payload: the
  // worker's decoder rejects it and exits, which the lane sees as an EOF
  // death — no timeout wait needed.
  const ScopedEnv plan("HAYAT_FAULT_PLAN", "corrupt:frame=2");
  const LaneCounters lanes;
  const SweepTable table = runDispatched(spec, "proc:1");

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(lanes.deaths(), 1u);
  EXPECT_GE(lanes.respawns(), 1u);
}

TEST(FaultInjectionTest, SoakSweepSurvivesEveryWorkerDying) {
  ExperimentSpec spec = testSpec();
  spec.darkFractions = {0.25, 0.5};
  spec.repetitions = 2;  // 16 tasks
  const SweepTable serial = serialReference(spec);

  // Every lane's worker _exit(43)s after serving one result, so each lane
  // alternates remote task, death, respawn — a lane with k tasks
  // respawns (k-1)/2 times, at least 4 across the fleet.
  const ScopedEnv plan("HAYAT_FAULT_PLAN",
                       "die:worker=0,after=1;die:worker=1,after=1;"
                       "die:worker=2,after=1;die:worker=3,after=1");
  SchedulerConfig config;
  config.dispatch = "proc:4";
  config.taskTimeoutSeconds = kRespawnTestTimeoutSeconds;
  config.maxLaneRespawns = 16;
  const LaneCounters lanes;
  const SweepTable table = runOnScheduler(spec, config);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(lanes.deaths(), 4u);
  EXPECT_GE(lanes.respawns(), 4u);
  EXPECT_EQ(lanes.remote() + lanes.fallback(), 16u);
}

// --------------------------------------------------------- cache pushing

TEST(CachePushTest, CorruptPushIsRejectedWithoutKillingTheWorker) {
  const std::string dir =
      testing::TempDir() + "hayat_push_corrupt_test";
  std::filesystem::remove_all(dir);
  const ScopedEnv cacheDir("HAYAT_CACHE_DIR", dir);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(sv[0]);
    ::_exit(runWorkerLoop(sv[1], sv[1]));
  }
  ::close(sv[1]);
  const int fd = sv[0];

  const ExperimentSpec spec = testSpec();
  ASSERT_TRUE(writeMessage(fd, MsgType::Spec, encodeSpec(spec)));

  // A CachePush whose payload is bit-rotted mid-frame: the worker must
  // reject it (decode failure) and keep serving tasks on the same
  // connection.
  std::string corrupt = encodeCachePush(
      spec.name, specHash(spec), "# hayat-result-cache v3\nbytes\n");
  corrupt[corrupt.size() / 2] ^= 0x5A;
  corrupt[3] ^= 0x5A;
  ASSERT_TRUE(writeMessage(fd, MsgType::CachePush, corrupt));

  ASSERT_TRUE(
      writeMessage(fd, MsgType::Task, encodeTask(0, specHash(spec))));
  Message msg;
  ASSERT_TRUE(readMessage(fd, msg)) << "worker died on the corrupt push";
  EXPECT_EQ(msg.type, MsgType::Result);

  // Nothing was stored for the corrupt frame.
  EXPECT_FALSE(
      std::filesystem::exists(cacheEntryPath(dir, spec.name,
                                             specHash(spec))));

  ASSERT_TRUE(writeMessage(fd, MsgType::Shutdown, ""));
  ::close(fd);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::filesystem::remove_all(dir);
}

TEST(CachePushTest, CoordinatorWarmsTcpWorkerCaches) {
  const std::string coordDir =
      testing::TempDir() + "hayat_push_coord_cache";
  const std::string workerDir =
      testing::TempDir() + "hayat_push_worker_cache";
  std::filesystem::remove_all(coordDir);
  std::filesystem::remove_all(workerDir);
  ::unsetenv("HAYAT_NO_CACHE");

  int port = 0;
  const int listenFd = bindLoopback(port);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The worker host's own cache directory — distinct from the
    // coordinator's, as on a real remote host.
    ::setenv("HAYAT_CACHE_DIR", workerDir.c_str(), 1);
    ::_exit(serveWorkerOnListenSocket(listenFd));
  }
  ::close(listenFd);

  ExperimentSpec spec = testSpec();
  spec.name = "push-test";
  EngineConfig config;
  config.workers = 1;
  config.cacheDir = coordDir;
  config.dispatch = "tcp:127.0.0.1:" + std::to_string(port);
  const SweepTable computed = ExperimentEngine(config).run(spec);
  ASSERT_EQ(computed.runs.size(), 4u);

  // The coordinator stored its own entry and pushed the same bytes to
  // the worker (which stores asynchronously — poll briefly).
  const std::string coordEntry = cachePath(coordDir, spec);
  const std::string workerEntry =
      cacheEntryPath(workerDir, spec.name, specHash(spec));
  ASSERT_TRUE(std::filesystem::exists(coordEntry));
  for (int i = 0; i < 500 && !std::filesystem::exists(workerEntry); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(std::filesystem::exists(workerEntry))
      << "worker never stored the pushed entry";
  EXPECT_EQ(slurpFile(coordEntry), slurpFile(workerEntry));

  // A *cache hit* pushes too: delete the worker's copy, re-run, and the
  // coordinator re-warms it without recomputing anything.
  std::filesystem::remove(workerEntry);
  const SweepTable cached = ExperimentEngine(config).run(spec);
  EXPECT_EQ(tableBytes(computed), tableBytes(cached));
  for (int i = 0; i < 500 && !std::filesystem::exists(workerEntry); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(std::filesystem::exists(workerEntry))
      << "cache hit did not re-warm the worker";

  // The pushed entry is a fully valid cache file: an engine pointed at
  // the worker's directory hits it and loads the identical table.
  EngineConfig workerSide;
  workerSide.workers = 1;
  workerSide.cacheDir = workerDir;
  const SweepTable loaded = ExperimentEngine(workerSide).run(spec);
  EXPECT_EQ(tableBytes(computed), tableBytes(loaded));

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  std::filesystem::remove_all(coordDir);
  std::filesystem::remove_all(workerDir);
}

// ------------------------------------------------------ /metrics endpoint

TEST(MetricsEndpointTest, ListenSocketServesPrometheusTextAndWireTraffic) {
  int port = 0;
  const int listenFd = bindLoopback(port);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(serveWorkerOnListenSocket(listenFd));
  ::close(listenFd);

  const auto httpGet = [&](const std::string& target) {
    const int fd = connectTcpWorker("127.0.0.1", port, 2000);
    EXPECT_GE(fd, 0);
    const std::string request =
        "GET " + target + " HTTP/1.0\r\nHost: x\r\n\r\n";
    EXPECT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
      response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
  };

  const std::string metrics = httpGet("/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  // The scrape counter advances with telemetry off, so a second scrape
  // reports one more request than the first.
  EXPECT_FALSE(telemetry::enabled());
  const auto requests = [](const std::string& response) -> std::uint64_t {
    const std::string sample = "\nhayat_worker_metrics_requests_total ";
    const std::size_t at = response.find(sample);
    if (at == std::string::npos) return 0;
    return std::stoull(response.substr(at + sample.size()));
  };
  const std::uint64_t first = requests(metrics);
  EXPECT_GE(first, 1u) << metrics;
  EXPECT_EQ(requests(httpGet("/metrics")), first + 1);

  EXPECT_EQ(httpGet("/nope").rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);

  // The same port still speaks the wire protocol to coordinators.
  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  const SweepTable dispatched =
      runDispatched(spec, "tcp:127.0.0.1:" + std::to_string(port));
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
}

}  // namespace
}  // namespace hayat::engine
