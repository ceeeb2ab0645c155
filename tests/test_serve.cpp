// The `hayat serve` subsystem: HTTP parsing (including a fuzz pass — the
// front door must answer 400, never crash or hang), the durable job
// queue, the deduplicating scheduler, and the full daemon loop: submit,
// stream, cancel, auth, admission control, drain, and crash recovery.
//
// The strong contract throughout: a job's result stream is the
// concatenated canonical run records of tasks 0..n-1, byte-identical to
// a serial one-shot run of the same spec — for concurrent clients, for
// shared specs, and across a daemon kill/restart.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/wire.hpp"
#include "engine/worker_proc.hpp"
#include "serve/http.hpp"
#include "serve/http_client.hpp"
#include "serve/job_queue.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"

namespace hayat::serve {
namespace {

using engine::ExperimentSpec;
using engine::SchedulerConfig;
using engine::SweepScheduler;
using engine::SweepTable;

/// Fresh scratch directory per test; removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hayat_serve_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::uint64_t counterValue(const char* name) {
  return telemetry::Registry::global().counter(name).value();
}

/// Small-but-real spec (the dispatch tests' 4-task shape).
ExperimentSpec testSpec(const std::string& name = "serve-test") {
  ExperimentSpec spec;
  spec.name = name;
  spec.system.population.coreGrid = {4, 4};
  spec.lifetime.horizon = 0.5;
  spec.lifetime.epochLength = 0.25;
  spec.policies = {{"VAA", {}}, {"Hayat", {}}};
  spec.chips = {0, 1};
  spec.darkFractions = {0.5};
  return spec;
}

std::string tableBytes(const SweepTable& table) {
  std::ostringstream out;
  for (const engine::RunResult& r : table.runs) engine::writeRunResult(out, r);
  return out.str();
}

SweepTable serialReference(const ExperimentSpec& spec) {
  ::unsetenv("HAYAT_DISPATCH");
  engine::EngineConfig config;
  config.workers = 1;
  config.cache = false;
  return engine::ExperimentEngine(config).run(spec);
}

HttpParse parse(const std::string& data, HttpRequest& out) {
  std::size_t consumed = 0;
  std::string error;
  return parseHttpRequest(data, out, consumed, error);
}

// --------------------------------------------------------- HTTP parsing

TEST(HttpParseTest, SimpleGetRequest) {
  HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  const std::string text =
      "GET /jobs/j3?priority=2 HTTP/1.1\r\nHost: x\r\n"
      "Authorization: Bearer s3cret\r\n\r\n";
  ASSERT_EQ(parseHttpRequest(text, req, consumed, error), HttpParse::Ok);
  EXPECT_EQ(consumed, text.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/jobs/j3");
  EXPECT_EQ(req.query, "priority=2");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.header("authorization"), "Bearer s3cret");
  EXPECT_EQ(req.header("missing"), "");
  const auto query = parseQuery(req.query);
  ASSERT_EQ(query.size(), 1u);
  EXPECT_EQ(query[0].first, "priority");
  EXPECT_EQ(query[0].second, "2");
}

TEST(HttpParseTest, PostBodyRespectsContentLength) {
  HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  const std::string body = "spec.name=x\nline two\n";
  const std::string text = "POST /jobs HTTP/1.1\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body +
                           "TRAILING GARBAGE";
  ASSERT_EQ(parseHttpRequest(text, req, consumed, error), HttpParse::Ok);
  EXPECT_EQ(req.body, body);
  EXPECT_EQ(consumed, text.size() - std::string("TRAILING GARBAGE").size());
}

TEST(HttpParseTest, BareLfLineEndingsAccepted) {
  HttpRequest req;
  ASSERT_EQ(parse("GET /metrics HTTP/1.0\nhost: y\n\n", req), HttpParse::Ok);
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.header("host"), "y");
}

TEST(HttpParseTest, PartialRequestsNeedMore) {
  for (const std::string prefix :
       {"", "G", "GET /jo", "GET /jobs HTTP/1.1", "GET /jobs HTTP/1.1\r\n",
        "GET /jobs HTTP/1.1\r\nHost: x\r\n"}) {
    HttpRequest req;
    EXPECT_EQ(parse(prefix, req), HttpParse::NeedMore) << prefix;
  }
  // A declared body that has not fully arrived is also NeedMore.
  HttpRequest req;
  EXPECT_EQ(parse("POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", req),
            HttpParse::NeedMore);
}

TEST(HttpParseTest, MalformedRequestsAreBad) {
  const std::string bad[] = {
      "GARBAGE\r\n\r\n",                        // no target/version
      "GET /jobs HTTP/2.0\r\n\r\n",             // unsupported version
      "GE T /jobs HTTP/1.1\r\n\r\n",            // space in method
      "g{}t /jobs HTTP/1.1\r\n\r\n",            // non-token method chars
      "GET /jobs\x01 HTTP/1.1\r\n\r\n",         // control byte in target
      "GET /jobs HTTP/1.1\r\nNoColonHere\r\n\r\n",
      "GET /jobs HTTP/1.1\r\nHost: a\r\n folded\r\n\r\n",  // obs-fold
      "POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
      "POST /jobs HTTP/1.1\r\nContent-Length: 999999999999999\r\n\r\n",
      "POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
  };
  for (const std::string& text : bad) {
    HttpRequest req;
    EXPECT_EQ(parse(text, req), HttpParse::Bad) << text;
  }
}

TEST(HttpParseTest, OversizedHeadIsBadNotBuffered) {
  std::string text = "GET /jobs HTTP/1.1\r\n";
  text += "X-Huge: " + std::string(64 * 1024, 'a');  // never terminated
  HttpRequest req;
  EXPECT_EQ(parse(text, req), HttpParse::Bad);
}

TEST(HttpParseFuzzTest, TruncationsNeverCrashOrSucceedSpuriously) {
  const std::string valid =
      "POST /jobs?priority=3 HTTP/1.1\r\nHost: h\r\nX-Client: c\r\n"
      "Content-Length: 5\r\n\r\nhello";
  for (std::size_t len = 0; len < valid.size(); ++len) {
    HttpRequest req;
    // Every strict prefix is incomplete: NeedMore, never Ok, never Bad
    // (the bytes so far are a valid beginning).
    EXPECT_EQ(parse(valid.substr(0, len), req), HttpParse::NeedMore)
        << "prefix length " << len;
  }
  HttpRequest req;
  EXPECT_EQ(parse(valid, req), HttpParse::Ok);
}

TEST(HttpParseFuzzTest, BitflipsNeverCrash) {
  const std::string valid =
      "GET /jobs/j1/results HTTP/1.1\r\nAuthorization: Bearer t\r\n\r\n";
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const int bit : {0, 3, 7}) {
      std::string mutated = valid;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      HttpRequest req;
      std::size_t consumed = 0;
      std::string error;
      // Any outcome is fine — it must simply return.
      parseHttpRequest(mutated, req, consumed, error);
    }
  }
}

TEST(HttpParseFuzzTest, RandomGarbageNeverCrashesAndBigInputsAreBounded) {
  std::mt19937 rng(20150607);  // deterministic
  for (int round = 0; round < 500; ++round) {
    const std::size_t len = rng() % 512;
    std::string data(len, '\0');
    for (char& c : data) c = static_cast<char>(rng() & 0xff);
    HttpRequest req;
    std::size_t consumed = 0;
    std::string error;
    parseHttpRequest(data, req, consumed, error);
  }
  // Unbounded garbage without a head terminator must be cut off as Bad,
  // not accumulate as NeedMore forever.
  std::string endless = "GET /";
  endless += std::string(32 * 1024, 'x');
  HttpRequest req;
  EXPECT_EQ(parse(endless, req), HttpParse::Bad);
}

TEST(HttpChunkTest, ChunkedRoundTripAcrossArbitrarySplits) {
  const std::vector<std::string> rows = {"row one\n", "row two\n",
                                         std::string(300, 'z') + "\n"};
  std::string stream;
  for (const std::string& row : rows) stream += httpChunk(row);
  stream += httpChunkEnd();

  // Feed the stream to the decoder in 7-byte slices.
  std::string buffer;
  std::vector<std::string> out;
  bool done = false;
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    buffer += stream.substr(off, 7);
    ASSERT_TRUE(decodeChunks(buffer, out, done));
  }
  EXPECT_TRUE(done);
  ASSERT_EQ(out.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(out[i], rows[i]);

  // A stream cut before the zero chunk is not done — the truncation
  // signal the cancel path relies on.
  std::string truncated = httpChunk("partial\n");
  std::vector<std::string> out2;
  bool done2 = false;
  ASSERT_TRUE(decodeChunks(truncated, out2, done2));
  EXPECT_FALSE(done2);

  std::string malformed = "nothex\r\nabc\r\n";
  std::vector<std::string> out3;
  bool done3 = false;
  EXPECT_FALSE(decodeChunks(malformed, out3, done3));
}

// ------------------------------------------------------------ job queue

TEST(JobQueueTest, RecordRoundTripAndMalformedRejected) {
  JobRecord job;
  job.id = "j7";
  job.seq = 7;
  job.client = "alice";
  job.priority = 2;
  job.state = JobState::Running;
  job.specText = "spec.name=x\nfield=1\n";
  job.specName = "x";
  job.specHash = 0xdeadbeefcafef00dull;
  job.taskCount = 12;
  job.error = "multi\nline gets\rflattened";

  JobRecord back;
  ASSERT_TRUE(decodeJobRecord(encodeJobRecord(job), back));
  EXPECT_EQ(back.id, "j7");
  EXPECT_EQ(back.seq, 7u);
  EXPECT_EQ(back.client, "alice");
  EXPECT_EQ(back.priority, 2);
  EXPECT_EQ(back.state, JobState::Running);
  EXPECT_EQ(back.specText, job.specText);
  EXPECT_EQ(back.specHash, job.specHash);
  EXPECT_EQ(back.taskCount, 12);
  EXPECT_EQ(back.error.find('\n'), std::string::npos);

  for (const std::string& bad :
       {std::string(""), std::string("# wrong magic\n"),
        encodeJobRecord(job).substr(0, 40),
        encodeJobRecord(job) + "extra trailing bytes"}) {
    JobRecord out;
    EXPECT_FALSE(decodeJobRecord(bad, out)) << bad;
  }
}

TEST(JobQueueTest, ReplayRestoresJobsAndDemotesRunning) {
  TempDir dir("queue_replay");
  JobRecord queued, running, completed;
  {
    JobQueue queue(dir.path());
    queued.specText = "a\n";
    running.specText = "b\n";
    completed.specText = "c\n";
    ASSERT_EQ(queue.submit(queued), JobQueue::Admission::Accepted);
    ASSERT_EQ(queue.submit(running), JobQueue::Admission::Accepted);
    ASSERT_EQ(queue.submit(completed), JobQueue::Admission::Accepted);
    ASSERT_TRUE(queue.setState(running.id, JobState::Running));
    ASSERT_TRUE(queue.setState(completed.id, JobState::Completed));
  }  // the "daemon" dies here; the journal survives

  JobQueue replayed(dir.path());
  ASSERT_EQ(replayed.list().size(), 3u);
  EXPECT_EQ(replayed.get(queued.id)->state, JobState::Queued);
  // Running work was lost with the process: demoted for a rerun.
  EXPECT_EQ(replayed.get(running.id)->state, JobState::Queued);
  EXPECT_EQ(replayed.get(completed.id)->state, JobState::Completed);
  // Sequence numbers continue; ids never collide across restarts.
  JobRecord fresh;
  fresh.specText = "d\n";
  ASSERT_EQ(replayed.submit(fresh), JobQueue::Admission::Accepted);
  EXPECT_GT(fresh.seq, completed.seq);
}

TEST(JobQueueTest, CorruptJournalFilesAreSkippedNotFatal) {
  TempDir dir("queue_corrupt");
  {
    JobQueue queue(dir.path());
    JobRecord job;
    job.specText = "ok\n";
    ASSERT_EQ(queue.submit(job), JobQueue::Admission::Accepted);
  }
  std::ofstream(dir.path() + "/torn.job") << "# hayat-job v1\nid=only";
  JobQueue replayed(dir.path());
  EXPECT_EQ(replayed.list().size(), 1u);
}

TEST(JobQueueTest, AdmissionControlBoundsQueueAndClients) {
  TempDir dir("queue_admission");
  JobQueue::Limits limits;
  limits.maxQueueDepth = 3;
  limits.maxClientActive = 2;
  JobQueue queue(dir.path(), limits);

  JobRecord a1, a2, a3, b1;
  a1.client = a2.client = a3.client = "alice";
  b1.client = "bob";
  EXPECT_EQ(queue.submit(a1), JobQueue::Admission::Accepted);
  EXPECT_EQ(queue.submit(a2), JobQueue::Admission::Accepted);
  EXPECT_EQ(queue.submit(a3), JobQueue::Admission::ClientLimit);
  EXPECT_EQ(queue.submit(b1), JobQueue::Admission::Accepted);
  JobRecord b2;
  b2.client = "bob";
  EXPECT_EQ(queue.submit(b2), JobQueue::Admission::QueueFull);
  // Finishing a job frees its admission slot.
  ASSERT_TRUE(queue.setState(a1.id, JobState::Completed));
  EXPECT_EQ(queue.submit(b2), JobQueue::Admission::Accepted);

  // Priority order: higher first, FIFO within a level.
  JobRecord high;
  high.priority = 5;
  ASSERT_TRUE(queue.setState(b2.id, JobState::Cancelled));
  ASSERT_EQ(queue.submit(high), JobQueue::Admission::Accepted);
  const auto order = queue.queuedJobs();
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order.front().id, high.id);
  EXPECT_EQ(order[1].id, a2.id);
}

// ------------------------------------------------------------ scheduler

TEST(SchedulerTest, RunCompletesByteIdenticalToSerial) {
  TempDir cache("sched_cache");
  const ExperimentSpec spec = testSpec("sched-serial");
  const std::string expected = tableBytes(serialReference(spec));

  SchedulerConfig config;
  config.localWorkers = 3;
  config.cacheDir = cache.path();
  SweepScheduler scheduler(config);
  const auto run = scheduler.attach(spec, 0, "job-a");
  ASSERT_EQ(run->taskCount(), 4);
  std::string streamed;
  for (int i = 0; i < run->taskCount(); ++i) {
    const auto row = run->waitRow(i, 30000);
    ASSERT_TRUE(row.has_value()) << "row " << i;
    streamed += *row;
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_TRUE(run->complete());
  EXPECT_EQ(tableBytes(run->table()), expected);
  scheduler.detach("job-a", run);
}

TEST(SchedulerTest, SameSpecJobsShareOneRunAndTheDiskCache) {
  TempDir cache("sched_share");
  const ExperimentSpec spec = testSpec("sched-share");
  SchedulerConfig config;
  config.localWorkers = 2;
  config.cacheDir = cache.path();

  const auto executedBefore = counterValue("hayat_serve_tasks_executed_total");
  const auto sharedBefore = counterValue("hayat_serve_shared_tasks_total");
  {
    SweepScheduler scheduler(config);
    const auto runA = scheduler.attach(spec, 0, "job-a");
    const auto runB = scheduler.attach(spec, 1, "job-b");
    EXPECT_EQ(runA.get(), runB.get());  // one computation, two jobs
    for (int i = 0; i < runA->taskCount(); ++i)
      ASSERT_TRUE(runA->waitRow(i, 30000).has_value());
    scheduler.detach("job-a", runA);
    scheduler.detach("job-b", runB);
  }
  EXPECT_EQ(counterValue("hayat_serve_tasks_executed_total") - executedBefore,
            static_cast<std::uint64_t>(spec.taskCount()));
  EXPECT_GE(counterValue("hayat_serve_shared_tasks_total") - sharedBefore,
            static_cast<std::uint64_t>(spec.taskCount()));

  // A new scheduler (a restarted daemon) serves the same spec from the
  // on-disk cache without recomputing a task.
  const auto hitsBefore = counterValue("hayat_serve_table_cache_hits_total");
  SweepScheduler restarted(config);
  const auto run = restarted.attach(spec, 0, "job-c");
  EXPECT_TRUE(run->complete());
  EXPECT_EQ(counterValue("hayat_serve_tasks_executed_total") - executedBefore,
            static_cast<std::uint64_t>(spec.taskCount()));
  EXPECT_EQ(counterValue("hayat_serve_table_cache_hits_total") - hitsBefore,
            1u);
  restarted.detach("job-c", run);
}

TEST(SchedulerTest, FinishedRunsLeaveMemoryAndComeBackFromTheDiskCache) {
  TempDir cache("sched_release");
  const ExperimentSpec spec = testSpec("sched-release");
  SchedulerConfig config;
  config.localWorkers = 2;
  config.cacheDir = cache.path();
  SweepScheduler scheduler(config);

  const auto executedBefore = counterValue("hayat_serve_tasks_executed_total");
  const auto releasedBefore = counterValue("hayat_serve_runs_released_total");
  const auto hitsBefore = counterValue("hayat_serve_table_cache_hits_total");
  const auto run = scheduler.attach(spec, 0, "job-a");
  for (int i = 0; i < run->taskCount(); ++i)
    ASSERT_TRUE(run->waitRow(i, 30000).has_value());
  const std::string expected = tableBytes(run->table());
  scheduler.detach("job-a", run);

  // The table is stored on the lane thread after the last row; once it
  // is on disk and no job holds the run, the scheduler lets it go.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counterValue("hayat_serve_runs_released_total") == releasedBefore &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(counterValue("hayat_serve_runs_released_total") - releasedBefore,
            1u);
  EXPECT_EQ(tableBytes(run->table()), expected);  // a held run stays valid

  // The same spec again: a new run, served whole from the disk cache.
  const auto again = scheduler.attach(spec, 0, "job-b");
  EXPECT_NE(again.get(), run.get());
  EXPECT_TRUE(again->complete());
  EXPECT_EQ(tableBytes(again->table()), expected);
  EXPECT_EQ(counterValue("hayat_serve_tasks_executed_total") - executedBefore,
            static_cast<std::uint64_t>(spec.taskCount()));
  EXPECT_EQ(counterValue("hayat_serve_table_cache_hits_total") - hitsBefore,
            1u);
  scheduler.detach("job-b", again);
  EXPECT_EQ(counterValue("hayat_serve_runs_released_total") - releasedBefore,
            2u);
}

// ----------------------------------------------------------- the daemon

ServeConfig smallServerConfig(const std::string& queueDir,
                              const std::string& cacheDir) {
  ServeConfig config;
  config.queueDir = queueDir;
  config.cacheDir = cacheDir;
  config.localWorkers = 2;
  return config;
}

/// Polls GET /jobs/<id> until the job reaches `state` (or a deadline).
bool awaitJobState(int port, const std::string& id, const std::string& state,
                   const std::vector<std::pair<std::string, std::string>>&
                       headers = {}) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    HttpClientResponse resp;
    if (httpRequest("127.0.0.1", port, "GET", "/jobs/" + id, "", headers,
                    resp) &&
        resp.status == 200 &&
        resp.body.find("state=" + state + "\n") != std::string::npos)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// Collects a job's full result stream; returns false on truncation.
bool streamJob(int port, const std::string& id, std::string& bytes,
               const std::vector<std::pair<std::string, std::string>>&
                   headers = {}) {
  bytes.clear();
  int status = 0;
  const bool complete = httpStream(
      "127.0.0.1", port, "/jobs/" + id + "/results", headers,
      [&bytes](const std::string& chunk) {
        bytes += chunk;
        return true;
      },
      status);
  return complete && status == 200;
}

TEST(ServeServerTest, SubmitStreamMatchesSerialAndConcurrentClientsShare) {
  TempDir queueDir("srv_queue");
  TempDir cacheDir("srv_cache");
  const ExperimentSpec spec = testSpec("srv-share");
  const std::string expected = tableBytes(serialReference(spec));
  const std::string specText = engine::encodeSpec(spec);

  ServeServer server(smallServerConfig(queueDir.path(), cacheDir.path()));
  ASSERT_TRUE(server.start());
  const int port = server.port();

  const auto executedBefore = counterValue("hayat_serve_tasks_executed_total");
  const auto sharedBefore = counterValue("hayat_serve_shared_tasks_total");

  // Two clients, same spec, submitted back to back.
  HttpClientResponse a, b;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs", specText,
                          {{"X-Client", "alice"}}, a));
  ASSERT_EQ(a.status, 201);
  ASSERT_NE(a.body.find("id=j1\n"), std::string::npos);
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs", specText,
                          {{"X-Client", "bob"}}, b));
  ASSERT_EQ(b.status, 201);
  ASSERT_NE(b.body.find("id=j2\n"), std::string::npos);

  // Stream both concurrently; each must be byte-identical to serial.
  std::string bytes1, bytes2;
  std::atomic<bool> ok1{false}, ok2{false};
  std::thread t1([&] { ok1 = streamJob(port, "j1", bytes1); });
  std::thread t2([&] { ok2 = streamJob(port, "j2", bytes2); });
  t1.join();
  t2.join();
  ASSERT_TRUE(ok1.load());
  ASSERT_TRUE(ok2.load());
  EXPECT_EQ(bytes1, expected);
  EXPECT_EQ(bytes2, expected);

  ASSERT_TRUE(awaitJobState(port, "j1", "completed"));
  ASSERT_TRUE(awaitJobState(port, "j2", "completed"));

  // The second job recomputed nothing: every one of its tasks was
  // shared with the first (>= 50% of the acceptance bar, and in fact
  // 100% here).
  EXPECT_EQ(counterValue("hayat_serve_tasks_executed_total") - executedBefore,
            static_cast<std::uint64_t>(spec.taskCount()));
  EXPECT_GE(counterValue("hayat_serve_shared_tasks_total") - sharedBefore,
            static_cast<std::uint64_t>(spec.taskCount()));

  // The job list mentions both terminal jobs.
  HttpClientResponse list;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "GET", "/jobs", "", {}, list));
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("j1 completed"), std::string::npos);
  EXPECT_NE(list.body.find("j2 completed"), std::string::npos);
  server.stop();
}

TEST(ServeServerTest, CancelQueuedJobAndStreamSeesTruncation) {
  TempDir queueDir("srv_cancel");
  TempDir cacheDir("srv_cancel_cache");
  ServeConfig config = smallServerConfig(queueDir.path(), cacheDir.path());
  config.maxRunningJobs = 0;  // nothing is admitted: jobs stay queued
  ServeServer server(config);
  ASSERT_TRUE(server.start());
  const int port = server.port();

  HttpClientResponse resp;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs",
                          engine::encodeSpec(testSpec("srv-cancel")), {},
                          resp));
  ASSERT_EQ(resp.status, 201);

  // Cancel while queued.
  ASSERT_TRUE(
      httpRequest("127.0.0.1", port, "DELETE", "/jobs/j1", "", {}, resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("state=cancelled"), std::string::npos);

  // Cancelling a terminal job is a conflict; unknown jobs are 404.
  ASSERT_TRUE(
      httpRequest("127.0.0.1", port, "DELETE", "/jobs/j1", "", {}, resp));
  EXPECT_EQ(resp.status, 409);
  ASSERT_TRUE(
      httpRequest("127.0.0.1", port, "DELETE", "/jobs/j99", "", {}, resp));
  EXPECT_EQ(resp.status, 404);

  // The results endpoint reports the cancellation instead of hanging.
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "GET", "/jobs/j1/results", "",
                          {}, resp));
  EXPECT_EQ(resp.status, 410);
  server.stop();
}

TEST(ServeServerTest, AdmissionOverflowAnswers429) {
  TempDir queueDir("srv_429");
  TempDir cacheDir("srv_429_cache");
  ServeConfig config = smallServerConfig(queueDir.path(), cacheDir.path());
  config.maxRunningJobs = 0;
  config.limits.maxQueueDepth = 2;
  config.limits.maxClientActive = 1;
  ServeServer server(config);
  ASSERT_TRUE(server.start());
  const int port = server.port();
  const std::string specText = engine::encodeSpec(testSpec("srv-429"));

  HttpClientResponse resp;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs", specText,
                          {{"X-Client", "alice"}}, resp));
  EXPECT_EQ(resp.status, 201);
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs", specText,
                          {{"X-Client", "alice"}}, resp));
  EXPECT_EQ(resp.status, 429);  // per-client cap
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs", specText,
                          {{"X-Client", "bob"}}, resp));
  EXPECT_EQ(resp.status, 201);
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs", specText,
                          {{"X-Client", "carol"}}, resp));
  EXPECT_EQ(resp.status, 429);  // queue depth
  server.stop();
}

TEST(ServeServerTest, BearerAuthGuardsJobsButNotHealthOrMetrics) {
  TempDir queueDir("srv_auth");
  TempDir cacheDir("srv_auth_cache");
  ServeConfig config = smallServerConfig(queueDir.path(), cacheDir.path());
  config.authToken = "s3cret";
  ServeServer server(config);
  ASSERT_TRUE(server.start());
  const int port = server.port();
  // Every request is counted, even with telemetry off.
  ASSERT_FALSE(telemetry::enabled());
  const std::uint64_t before = counterValue("hayat_serve_http_requests_total");

  HttpClientResponse resp;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "GET", "/jobs", "", {}, resp));
  EXPECT_EQ(resp.status, 401);
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "GET", "/jobs", "",
                          {{"Authorization", "Bearer wrong"}}, resp));
  EXPECT_EQ(resp.status, 401);
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "GET", "/jobs", "",
                          {{"Authorization", "Bearer s3cret"}}, resp));
  EXPECT_EQ(resp.status, 200);
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "GET", "/healthz", "", {}, resp));
  EXPECT_EQ(resp.status, 200);
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "GET", "/metrics", "", {}, resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\nhayat_serve_http_requests_total " +
                           std::to_string(before + 5) + "\n"),
            std::string::npos)
      << resp.body;
  EXPECT_EQ(counterValue("hayat_serve_http_requests_total"), before + 5);
  server.stop();
}

TEST(ServeServerTest, MalformedHttpAnswers400AndWireMagicIsRejected) {
  TempDir queueDir("srv_bad");
  TempDir cacheDir("srv_bad_cache");
  ServeServer server(smallServerConfig(queueDir.path(), cacheDir.path()));
  ASSERT_TRUE(server.start());
  const int port = server.port();

  {
    const int fd = engine::connectTcpWorker("127.0.0.1", port, 2000);
    ASSERT_GE(fd, 0);
    const std::string garbage = "G{}T /jobs HTTP/9.9\r\n\r\n";
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    std::string reply;
    char buf[512];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
      reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    EXPECT_NE(reply.find("400"), std::string::npos) << reply;
  }
  {
    // A wire-protocol dial at the serve port is closed, not served.
    const auto before = counterValue("hayat_serve_wire_rejected_total");
    const int fd = engine::connectTcpWorker("127.0.0.1", port, 2000);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(engine::writeMessage(fd, engine::MsgType::Shutdown, ""));
    char buf[16];
    EXPECT_LE(::read(fd, buf, sizeof(buf)), 0);  // EOF, no HTTP reply
    ::close(fd);
    EXPECT_EQ(counterValue("hayat_serve_wire_rejected_total"), before + 1);
  }
  server.stop();
}

TEST(ServeServerTest, DrainRefusesNewJobsAndFinishesRunningOnes) {
  TempDir queueDir("srv_drain");
  TempDir cacheDir("srv_drain_cache");
  const ExperimentSpec spec = testSpec("srv-drain");
  const std::string expected = tableBytes(serialReference(spec));
  ServeServer server(smallServerConfig(queueDir.path(), cacheDir.path()));
  ASSERT_TRUE(server.start());
  const int port = server.port();

  HttpClientResponse resp;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs",
                          engine::encodeSpec(spec), {}, resp));
  ASSERT_EQ(resp.status, 201);

  server.beginDrain();
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs",
                          engine::encodeSpec(testSpec("srv-drain-2")), {},
                          resp));
  EXPECT_EQ(resp.status, 503);

  // The accepted job still runs to completion with correct bytes.
  std::string bytes;
  ASSERT_TRUE(streamJob(port, "j1", bytes));
  EXPECT_EQ(bytes, expected);
  ASSERT_TRUE(awaitJobState(port, "j1", "completed"));
  EXPECT_EQ(server.activeJobs(), 0);
  server.stop();
}

/// SIGKILLs a forked process group and reaps its leader when the scope
/// ends, on every exit path (a failed ASSERT included), so neither the
/// daemon nor a worker it forked outlives the test.
class ForkedGroup {
 public:
  explicit ForkedGroup(pid_t leader) : leader_(leader) {}
  ~ForkedGroup() { kill(); }
  ForkedGroup(const ForkedGroup&) = delete;
  ForkedGroup& operator=(const ForkedGroup&) = delete;

  void kill() {
    if (leader_ <= 0) return;
    ::kill(-leader_, SIGKILL);
    ::kill(leader_, SIGKILL);  // should the group not exist yet
    int status = 0;
    while (::waitpid(leader_, &status, 0) < 0 && errno == EINTR) continue;
    leader_ = -1;
  }

 private:
  pid_t leader_;
};

/// The SIGKILL-mid-sweep recovery contract.  A child process runs a real
/// daemon; the parent submits a job, waits until it is running, SIGKILLs
/// the child (no drain, no cleanup), then replays the same queue
/// directory in-process and verifies the job reruns to the exact serial
/// bytes.
TEST(ServeServerTest, SigkillMidSweepRecoversToByteIdenticalResults) {
  TempDir queueDir("srv_kill");
  TempDir cacheDir("srv_kill_cache");
  const ExperimentSpec spec = testSpec("srv-kill");
  const std::string expected = tableBytes(serialReference(spec));

  int portPipe[2];
  ASSERT_EQ(::pipe(portPipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::setpgid(0, 0);
    ::close(portPipe[0]);
    // The daemon's one forked worker serves the first task and then
    // wedges, so the job is still running when the kill lands, however
    // fast the host.  The plan lives in this process only.
    ::setenv("HAYAT_FAULT_PLAN", "stall:worker=0,after=1", 1);
    ServeConfig config = smallServerConfig(queueDir.path(), cacheDir.path());
    config.dispatch = "proc:1";
    ServeServer server(config);
    if (!server.start()) ::_exit(1);
    const int port = server.port();
    if (::write(portPipe[1], &port, sizeof(port)) != sizeof(port))
      ::_exit(1);
    ::close(portPipe[1]);
    for (;;) ::pause();  // serve until SIGKILLed
  }
  ::setpgid(child, child);  // whichever side runs first makes the group
  ForkedGroup daemon(child);
  ::close(portPipe[1]);
  int port = 0;
  ASSERT_EQ(::read(portPipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(portPipe[0]);

  HttpClientResponse resp;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/jobs",
                          engine::encodeSpec(spec), {}, resp));
  ASSERT_EQ(resp.status, 201);
  ASSERT_TRUE(awaitJobState(port, "j1", "running"));
  daemon.kill();

  // Restart on the same queue directory: the journal replays, the
  // running job is demoted to queued, rerun, and streams the same bytes.
  ServeServer restarted(
      smallServerConfig(queueDir.path(), cacheDir.path()));
  ASSERT_TRUE(restarted.start());
  const int port2 = restarted.port();
  ASSERT_TRUE(httpRequest("127.0.0.1", port2, "GET", "/jobs/j1", "", {},
                          resp));
  ASSERT_EQ(resp.status, 200);
  std::string bytes;
  ASSERT_TRUE(streamJob(port2, "j1", bytes));
  EXPECT_EQ(bytes, expected);
  ASSERT_TRUE(awaitJobState(port2, "j1", "completed"));
  restarted.stop();
}

// A spec journaled before the sweep-wide prune field left the spec walk
// carries that field's line right after `repetitions=`.  After a restart
// the job must fail with an error; it must never decode into a different
// spec and run.
TEST(ServeServerTest, JournaledSpecWithRetiredPruneFieldFails) {
  TempDir queueDir("srv_retired");
  TempDir cacheDir("srv_retired_cache");
  // The retired key, built from pieces: nothing in the code base names it.
  const std::string retiredLine = std::string("policy") + "Prune=\n";
  std::string specText = engine::encodeSpec(testSpec("srv-retired"));
  const std::string anchor = "repetitions=1\n";
  const std::size_t at = specText.find(anchor);
  ASSERT_NE(at, std::string::npos);
  specText.insert(at + anchor.size(), retiredLine);
  EXPECT_THROW(engine::decodeSpec(specText), Error);

  {
    JobQueue queue(queueDir.path());
    JobRecord job;
    job.specName = "srv-retired";
    job.specText = specText;
    ASSERT_EQ(queue.submit(job), JobQueue::Admission::Accepted);
    ASSERT_EQ(job.id, "j1");
  }  // the old daemon is gone; its journal survives

  ServeServer server(smallServerConfig(queueDir.path(), cacheDir.path()));
  ASSERT_TRUE(server.start());
  const int port = server.port();
  ASSERT_TRUE(awaitJobState(port, "j1", "failed"));
  HttpClientResponse resp;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "GET", "/jobs/j1", "", {}, resp));
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("wire spec: expected 'chips.count'"),
            std::string::npos)
      << resp.body;
  server.stop();
}

// ------------------------------------------------ wire v5 + worker sniff

TEST(WireV5Test, WorkerServesMultipleSpecsOnOneConnection) {
  const ExperimentSpec specA = testSpec("multi-a");
  ExperimentSpec specB = testSpec("multi-b");
  specB.chips = {0};  // different shape, different hash

  pid_t pid = -1;
  const int fd = engine::spawnWorker(engine::WorkerEndpoint{}, -1, pid);
  ASSERT_GT(pid, 0);
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(engine::writeMessage(fd, engine::MsgType::Spec,
                                   engine::encodeSpec(specA)));
  ASSERT_TRUE(engine::writeMessage(fd, engine::MsgType::Spec,
                                   engine::encodeSpec(specB)));
  const std::uint64_t hashA = engine::specHash(specA);
  const std::uint64_t hashB = engine::specHash(specB);

  // Interleave tasks of both specs on the one connection.
  ASSERT_TRUE(engine::writeMessage(fd, engine::MsgType::Task,
                                   engine::encodeTask(0, hashA)));
  ASSERT_TRUE(engine::writeMessage(fd, engine::MsgType::Task,
                                   engine::encodeTask(0, hashB)));
  ASSERT_TRUE(engine::writeMessage(fd, engine::MsgType::Task,
                                   engine::encodeTask(1, hashA)));
  // An unknown hash still gets a TaskError, not a dead worker.
  ASSERT_TRUE(engine::writeMessage(fd, engine::MsgType::Task,
                                   engine::encodeTask(0, 0x1234)));

  const SweepTable tableA = serialReference(specA);
  const SweepTable tableB = serialReference(specB);
  const auto expectRow = [&](const SweepTable& table, int index) {
    engine::Message msg;
    ASSERT_TRUE(engine::readMessage(fd, msg));
    ASSERT_EQ(msg.type, engine::MsgType::Result);
    int gotIndex = -1;
    engine::RunResult result;
    engine::decodeResult(msg.payload, gotIndex, result);
    ASSERT_EQ(gotIndex, index);
    std::ostringstream got, want;
    engine::writeRunResult(got, result);
    engine::writeRunResult(want,
                           table.runs[static_cast<std::size_t>(index)]);
    EXPECT_EQ(got.str(), want.str());
  };
  expectRow(tableA, 0);
  expectRow(tableB, 0);
  expectRow(tableA, 1);
  engine::Message msg;
  ASSERT_TRUE(engine::readMessage(fd, msg));
  EXPECT_EQ(msg.type, engine::MsgType::TaskError);

  ASSERT_TRUE(engine::writeMessage(fd, engine::MsgType::Shutdown, ""));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ::close(fd);
}

TEST(WorkerSniffTest, NonGetHttpMethodsGet405NotSilence) {
  // A worker's dual-protocol listen socket.
  const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listenFd, 0);
  const int one = 1;
  ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listenFd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listenFd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = static_cast<int>(ntohs(addr.sin_port));
  std::thread serverThread(
      [listenFd] { engine::serveWorkerOnListenSocket(listenFd); });

  HttpClientResponse resp;
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "POST", "/metrics", "x", {},
                          resp));
  EXPECT_EQ(resp.status, 405);
  EXPECT_EQ(resp.header("allow"), "GET");
  ASSERT_TRUE(httpRequest("127.0.0.1", port, "DELETE", "/metrics", "", {},
                          resp));
  EXPECT_EQ(resp.status, 405);
  ASSERT_TRUE(
      httpRequest("127.0.0.1", port, "GET", "/metrics", "", {}, resp));
  EXPECT_EQ(resp.status, 200);

  ::shutdown(listenFd, SHUT_RDWR);
  ::close(listenFd);
  serverThread.join();
}

// ------------------------------------------------- Metric registration

// Every metric handle in src/ is bound during static initialisation, so
// the registry already holds every metric before a test does any work.
// ctest runs each test in its own process, so nothing has run here yet:
// a handle fetched on first use instead would be missing.  The pinned
// list is every literal metric name in src/, with its kind and
// histogram bounds; dashboards and the repository benchmark read these
// names, so they do not change.  The one run-time lookup, the per-unit
// failure counters, is named by the failure graph and is not here.
TEST(TelemetryHandlesTest, EveryMetricIsRegisteredAtStartup) {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::Registry::global().snapshot();

  const std::vector<std::string> counters = {
      "hayat_aging_batch_lookups_total",
      "hayat_aging_table_shared_hits_total",
      "hayat_aging_table_shared_misses_total",
      "hayat_dtm_migrations_total",
      "hayat_dtm_restores_total",
      "hayat_dtm_throttles_total",
      "hayat_engine_runs_total",
      "hayat_engine_tasks_total",
      "hayat_epoch_lane_windows_total",
      "hayat_epoch_step_allocs",
      "hayat_epoch_windows_total",
      "hayat_equivalent_age_bisections_total",
      "hayat_failure_em_kills_total",
      "hayat_failure_samples_total",
      "hayat_failure_tddb_kills_total",
      "hayat_health_advance_allocs",
      "hayat_lifetime_epochs_total",
      "hayat_lifetime_runs_total",
      "hayat_policy_candidates_total",
      "hayat_policy_hayat_decisions_total",
      "hayat_policy_placement_allocs",
      "hayat_policy_tsafe_bound_admit_total",
      "hayat_policy_tsafe_gray_walk_total",
      "hayat_policy_tsafe_hot_reject_total",
      "hayat_policy_tsafe_self_reject_total",
      "hayat_policy_vaa_decisions_total",
      "hayat_pool_tasks_total",
      "hayat_result_cache_evicted_age_total",
      "hayat_result_cache_evicted_bytes_total",
      "hayat_result_cache_evicted_size_total",
      "hayat_result_cache_hits_total",
      "hayat_result_cache_misses_total",
      "hayat_result_cache_orphans_dropped_total",
      "hayat_result_cache_push_stored_total",
      "hayat_result_cache_stores_total",
      "hayat_serve_auth_failures_total",
      "hayat_serve_drains_total",
      "hayat_serve_http_bad_requests_total",
      "hayat_serve_http_requests_total",
      "hayat_serve_jobs_cancelled_total",
      "hayat_serve_jobs_completed_total",
      "hayat_serve_jobs_failed_total",
      "hayat_serve_jobs_recovered_total",
      "hayat_serve_jobs_rejected_total",
      "hayat_serve_jobs_started_total",
      "hayat_serve_jobs_submitted_total",
      "hayat_serve_journal_skipped_total",
      "hayat_serve_lane_deaths_total",
      "hayat_serve_lane_respawns_total",
      "hayat_serve_runs_abandoned_total",
      "hayat_serve_runs_failed_total",
      "hayat_serve_runs_released_total",
      "hayat_serve_shared_tasks_total",
      "hayat_serve_streams_total",
      "hayat_serve_streams_truncated_total",
      "hayat_serve_table_cache_hits_total",
      "hayat_serve_table_cache_stores_total",
      "hayat_serve_tasks_executed_total",
      "hayat_serve_tasks_local_fallback_total",
      "hayat_serve_tasks_local_total",
      "hayat_serve_tasks_remote_total",
      "hayat_serve_wire_rejected_total",
      "hayat_thermal_influence_shared_hits_total",
      "hayat_thermal_influence_shared_misses_total",
      "hayat_thermal_lu_shared_hits_total",
      "hayat_thermal_lu_shared_misses_total",
      "hayat_variation_sampler_shared_hits_total",
      "hayat_variation_sampler_shared_misses_total",
      "hayat_wire_bytes_received_total",
      "hayat_wire_bytes_sent_total",
      "hayat_wire_messages_received_total",
      "hayat_wire_messages_sent_total",
      "hayat_worker_cache_push_rejected_total",
      "hayat_worker_cache_push_stored_total",
      "hayat_worker_metrics_requests_total",
  };
  const std::vector<std::string> gauges = {
      "hayat_pool_workers",
      "hayat_serve_backlog_tasks",
      "hayat_serve_jobs_running",
      "hayat_serve_queue_depth",
  };
  const std::vector<double> buildBounds = {1e-4, 1e-3, 3e-3, 1e-2,
                                           3e-2, 0.1,  0.3,  1.0,
                                           3.0,  10.0, 30.0};
  const std::map<std::string, std::vector<double>> histograms = {
      {"hayat_aging_table_build_seconds", buildBounds},
      {"hayat_epoch_window_seconds",
       {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0}},
      {"hayat_serve_job_latency_seconds",
       {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0}},
      {"hayat_thermal_influence_build_seconds", buildBounds},
      {"hayat_thermal_lu_build_seconds", buildBounds},
      {"hayat_variation_sampler_build_seconds", buildBounds},
      {"hayat_worker_task_seconds", {0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0}},
  };
  EXPECT_EQ(counters.size() + gauges.size() + histograms.size(), 86u);

  std::set<std::string> registeredCounters;
  for (const auto& [name, value] : snapshot.counters)
    registeredCounters.insert(name);
  std::set<std::string> registeredGauges;
  for (const auto& [name, value] : snapshot.gauges)
    registeredGauges.insert(name);
  std::map<std::string, std::vector<double>> registeredHistograms;
  for (const telemetry::HistogramSnapshot& h : snapshot.histograms)
    registeredHistograms[h.name] = h.upperBounds;

  for (const std::string& name : counters)
    EXPECT_EQ(registeredCounters.count(name), 1u) << "counter " << name;
  for (const std::string& name : gauges)
    EXPECT_EQ(registeredGauges.count(name), 1u) << "gauge " << name;
  for (const auto& [name, bounds] : histograms) {
    const auto it = registeredHistograms.find(name);
    ASSERT_NE(it, registeredHistograms.end()) << "histogram " << name;
    EXPECT_EQ(it->second, bounds) << "histogram " << name;
  }

  // Nothing else carries the project's prefix: a renamed metric fails
  // here as well as above.
  const std::set<std::string> pinned = [&] {
    std::set<std::string> all(counters.begin(), counters.end());
    all.insert(gauges.begin(), gauges.end());
    for (const auto& [name, bounds] : histograms) all.insert(name);
    return all;
  }();
  const auto expectPinned = [&](const std::string& name) {
    if (name.rfind("hayat_", 0) != 0) return;
    if (name.rfind("hayat_failure_unit_kills_total_", 0) == 0) return;
    EXPECT_EQ(pinned.count(name), 1u) << "unpinned metric " << name;
  };
  for (const std::string& name : registeredCounters) expectPinned(name);
  for (const std::string& name : registeredGauges) expectPinned(name);
  for (const auto& [name, bounds] : registeredHistograms) expectPinned(name);
}

}  // namespace
}  // namespace hayat::serve
