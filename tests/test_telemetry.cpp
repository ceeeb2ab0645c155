// Telemetry subsystem: metrics math, span recording, the exporters, and
// the end-to-end guarantees the rest of the repo relies on.
//
// The two contracts that matter most sit at the end of the file:
//
//   1. Byte identity — running a sweep with telemetry enabled produces a
//      SweepTable bit-identical to a disabled run (telemetry observes,
//      never perturbs);
//   2. Distributed merge — proc: workers stream their counter deltas
//      back on Result frames and the coordinator folds them into one
//      worker aggregate.
//
// Exporter bytes are pinned golden-file style; regenerate after an
// intentional format change with:
//
//   HAYAT_REGEN_GOLDEN=1 ./tests/test_telemetry
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/wire.hpp"
#include "engine/worker_proc.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace hayat::telemetry {
namespace {

/// Collection is process-global; every test that turns it on restores
/// the disabled default even on assertion failure.
class ScopedTelemetry {
 public:
  ScopedTelemetry() { setEnabled(true); }
  ~ScopedTelemetry() { setEnabled(false); }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;
};

/// Regen mode (see the file comment): dump and fail.
bool dumpIfRegen(const char* label, const std::string& actual) {
  if (std::getenv("HAYAT_REGEN_GOLDEN") == nullptr) return false;
  std::printf("==== BEGIN %s ====\n%s==== END %s ====\n", label,
              actual.c_str(), label);
  return true;
}

// ---------------------------------------------------------------- metrics

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  for (std::thread& t : pool) t.join();
  counter.add(5);
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread + 5);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAddAndReset) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(HistogramTest, BucketsCountAndSum) {
  Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 4.0, 9.0}) h.observe(v);
  // Bounds are inclusive upper edges; 9.0 lands in the overflow bucket.
  const std::vector<std::uint64_t> expected{2, 1, 1, 1};
  EXPECT_EQ(h.bucketCounts(), expected);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // no observations
  for (int i = 0; i < 4; ++i) h.observe(5.0);
  // All 4 observations sit in (0, 10]; the median interpolates halfway.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
  h.observe(100.0);  // overflow reports its lower bound
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
}

// Tests that register test_* metrics use a registry of their own: the
// global one backs the /metrics body, whose samples must all be hayat_*
// (MetricsEndpointGoldenTest) whatever ran before in this process.

TEST(RegistryTest, LookupsAreStableReferences) {
  Registry registry;
  Counter& a = registry.counter("test_registry_stable_total");
  Counter& b = registry.counter("test_registry_stable_total");
  EXPECT_EQ(&a, &b);
  Histogram& h = registry.histogram("test_registry_stable_seconds", {1.0});
  Histogram& h2 = registry.histogram("test_registry_stable_seconds", {99.0});
  EXPECT_EQ(&h, &h2);  // later bounds are ignored
  EXPECT_EQ(h.upperBounds(), std::vector<double>{1.0});
}

TEST(CounterDeltaCodecTest, EncodesOnlyAdvancesAndRoundTrips) {
  Registry registry;
  registry.counter("test_delta_codec_idle_total");
  Counter& c = registry.counter("test_delta_codec_total");
  c.add(2);
  std::map<std::string, std::uint64_t> lastSent;
  encodeCounterDeltas(lastSent, registry);  // baseline: absorb current values
  c.add(7);

  std::vector<std::pair<std::string, std::uint64_t>> decoded;
  ASSERT_TRUE(decodeCounterDeltas(encodeCounterDeltas(lastSent, registry),
                                  decoded));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].first, "test_delta_codec_total");
  EXPECT_EQ(decoded[0].second, 7u);

  // Nothing advanced since: the next delta payload is empty.
  EXPECT_TRUE(encodeCounterDeltas(lastSent, registry).empty());
}

TEST(CounterDeltaCodecTest, RejectsMalformedLines) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  EXPECT_FALSE(decodeCounterDeltas("x,name,1\n", out));
  EXPECT_FALSE(decodeCounterDeltas("c,,1\n", out));
  EXPECT_FALSE(decodeCounterDeltas("c,name,12x\n", out));
  // Digits only, no wrap and no saturation: strtoull alone would take
  // each of these (a "-1" delta wraps a fleet total).
  EXPECT_FALSE(decodeCounterDeltas("c,name,-1\n", out));
  EXPECT_FALSE(decodeCounterDeltas("c,name, 7\n", out));
  EXPECT_FALSE(decodeCounterDeltas("c,name,+7\n", out));
  EXPECT_FALSE(decodeCounterDeltas("c,name,\n", out));
  EXPECT_FALSE(decodeCounterDeltas("c,name,18446744073709551616\n", out));
  EXPECT_FALSE(decodeCounterDeltas("c,name,99999999999999999999\n", out));
  EXPECT_TRUE(decodeCounterDeltas("", out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(decodeCounterDeltas("c,name,18446744073709551615\n", out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second, UINT64_MAX);

  // The same numbers in a wire metrics section, and a histogram line
  // must have a finite sum and finite bounds too.
  MetricDeltas deltas;
  ASSERT_TRUE(decodeMetricDeltas("c,a,3\nh,x,1,0.5,1:1,+Inf:0\n", deltas));
  ASSERT_EQ(deltas.histograms.size(), 1u);
  EXPECT_EQ(deltas.histograms[0].sum, 0.5);
  for (const char* bad :
       {"c,a,-1\n", "c,a,99999999999999999999\n", "h,x,-1,nan,1:0,+Inf:-1\n",
        "h,x,-1,0.5,1:1,+Inf:0\n", "h,x,+1,0.5,1:1,+Inf:0\n",
        "h,x,1,0.5,1:1,+Inf:-1\n", "h,x,1,0.5,1: 1,+Inf:0\n",
        "h,x,1,nan,1:1,+Inf:0\n", "h,x,1,inf,1:1,+Inf:0\n",
        "h,x,1,-inf,1:1,+Inf:0\n", "h,x,1,0.5,nan:1,+Inf:0\n"})
    EXPECT_FALSE(decodeMetricDeltas(bad, deltas)) << bad;
}

// ------------------------------------------------------------------ spans

TEST(SpanTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(enabled());
  const std::uint64_t before = threadRecorder().recorded();
  { const Span span("test.disabled"); }
  EXPECT_EQ(threadRecorder().recorded(), before);
}

TEST(SpanTest, NestedSpansRecordDepthAndOrdering) {
  const ScopedTelemetry on;
  const std::uint64_t before = threadRecorder().recorded();
  {
    const Span outer("test.outer");
    { const Span inner("test.inner"); }
  }
  ASSERT_EQ(threadRecorder().recorded(), before + 2);

  // Spans record at destruction: inner first, then outer.
  const std::vector<SpanEvent> events = threadRecorder().events();
  ASSERT_GE(events.size(), 2u);
  const SpanEvent& inner = events[events.size() - 2];
  const SpanEvent& outer = events[events.size() - 1];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_GE(inner.startNs, outer.startNs);
  EXPECT_LE(inner.durationNs, outer.durationNs);
  EXPECT_EQ(inner.threadId, outer.threadId);
}

TEST(SpanSamplingTest, SampleSiteKeepsOneInNStartingWithTheFirst) {
  setSpanSampling(3);
  std::atomic<std::uint64_t> site{0};
  std::vector<bool> kept;
  for (int i = 0; i < 7; ++i) kept.push_back(sampleSpanSite(site));
  setSpanSampling(1);  // restore the keep-everything default
  const std::vector<bool> expected{true, false, false, true,
                                   false, false, true};
  EXPECT_EQ(kept, expected);
  EXPECT_EQ(spanSampleEvery(), 1u);
  // A divisor of 0 is nonsense and clamps to 1.
  setSpanSampling(0);
  EXPECT_EQ(spanSampleEvery(), 1u);
}

TEST(SpanSamplingTest, UnsampledSpansAreNotRecorded) {
  const ScopedTelemetry on;
  const std::uint64_t before = threadRecorder().recorded();
  { const Span dropped("test.sampled", false); }
  EXPECT_EQ(threadRecorder().recorded(), before);
  { const Span recorded("test.sampled", true); }
  EXPECT_EQ(threadRecorder().recorded(), before + 1);
}

TEST(FlightRecorderTest, RingRetainsTheLastCapacityEvents) {
  FlightRecorder recorder(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    SpanEvent e;
    e.name = "test.ring";
    e.startNs = i;
    recorder.record(e);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<SpanEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 4u);  // the ring holds the last 4, oldest first
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(events[i].startNs, 6 + i);
}

TEST(SpanTest, CollectAllSpansMergesThreadsSortedByStart) {
  const ScopedTelemetry on;
  { const Span span("test.collect.main"); }
  std::thread([] { const Span span("test.collect.worker"); }).join();

  const std::vector<SpanEvent> all = collectAllSpans();
  bool sawMain = false, sawWorker = false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(all[i].startNs, all[i - 1].startNs);
    }
    if (std::string(all[i].name) == "test.collect.main") sawMain = true;
    if (std::string(all[i].name) == "test.collect.worker") sawWorker = true;
  }
  EXPECT_TRUE(sawMain);
  EXPECT_TRUE(sawWorker);
}

// -------------------------------------------------------------- exporters

const char* const kGoldenProm =
    R"gold(# TYPE hayat_a_total counter
hayat_a_total 3
hayat_a_total{source="worker"} 2
# TYPE hayat_worker_only_total counter
hayat_worker_only_total{source="worker"} 7
# TYPE hayat_g gauge
hayat_g 1.5
# TYPE hayat_h_seconds histogram
hayat_h_seconds_bucket{le="0.10000000000000001"} 2
hayat_h_seconds_bucket{le="1"} 3
hayat_h_seconds_bucket{le="+Inf"} 4
hayat_h_seconds_sum 3.25
hayat_h_seconds_count 4
)gold";

TEST(PrometheusExportTest, BytesArePinned) {
  MetricsSnapshot snap;
  snap.counters = {{"hayat_a_total", 3}};
  snap.gauges = {{"hayat_g", 1.5}};
  HistogramSnapshot h;
  h.name = "hayat_h_seconds";
  h.upperBounds = {0.1, 1.0};
  h.counts = {2, 1, 1};
  h.count = 4;
  h.sum = 3.25;
  snap.histograms = {h};

  std::ostringstream out;
  writePrometheus(out, snap,
                  {{"hayat_a_total", 2}, {"hayat_worker_only_total", 7}});
  ASSERT_FALSE(dumpIfRegen("metrics.prom", out.str()))
      << "HAYAT_REGEN_GOLDEN is set; paste the dumped bytes";
  EXPECT_EQ(out.str(), kGoldenProm);
}

const char* const kGoldenWorkerHistProm =
    R"gold(# TYPE hayat_h_seconds histogram
hayat_h_seconds_bucket{le="0.10000000000000001"} 2
hayat_h_seconds_bucket{le="1"} 3
hayat_h_seconds_bucket{le="+Inf"} 4
hayat_h_seconds_sum 3.25
hayat_h_seconds_count 4
hayat_h_seconds_bucket{source="worker",le="0.10000000000000001"} 1
hayat_h_seconds_bucket{source="worker",le="1"} 1
hayat_h_seconds_bucket{source="worker",le="+Inf"} 3
hayat_h_seconds_sum{source="worker"} 2.5
hayat_h_seconds_count{source="worker"} 3
# TYPE hayat_worker_task_seconds histogram
hayat_worker_task_seconds_bucket{source="worker",le="0.25"} 1
hayat_worker_task_seconds_bucket{source="worker",le="+Inf"} 2
hayat_worker_task_seconds_sum{source="worker"} 0.75
hayat_worker_task_seconds_count{source="worker"} 2
)gold";

TEST(PrometheusExportTest, WorkerHistogramBytesArePinned) {
  // A histogram both sides report interleaves its {source="worker"}
  // lines inside the owner's # TYPE block; one only workers report gets
  // its own block after.
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.name = "hayat_h_seconds";
  h.upperBounds = {0.1, 1.0};
  h.counts = {2, 1, 1};
  h.count = 4;
  h.sum = 3.25;
  snap.histograms = {h};

  HistogramSnapshot shared;
  shared.name = "hayat_h_seconds";
  shared.upperBounds = {0.1, 1.0};
  shared.counts = {1, 0, 2};
  shared.count = 3;
  shared.sum = 2.5;
  HistogramSnapshot workerOnly;
  workerOnly.name = "hayat_worker_task_seconds";
  workerOnly.upperBounds = {0.25};
  workerOnly.counts = {1, 1};
  workerOnly.count = 2;
  workerOnly.sum = 0.75;

  std::ostringstream out;
  writePrometheus(out, snap, {}, {shared, workerOnly});
  ASSERT_FALSE(dumpIfRegen("worker-hist.prom", out.str()))
      << "HAYAT_REGEN_GOLDEN is set; paste the dumped bytes";
  EXPECT_EQ(out.str(), kGoldenWorkerHistProm);
}

const char* const kGoldenMergedWorkerProm =
    R"gold(# TYPE hayat_worker_cache_push_stored_total counter
hayat_worker_cache_push_stored_total{source="worker"} 2
# TYPE hayat_worker_task_seconds histogram
hayat_worker_task_seconds_bucket{source="worker",le="0.25"} 1
hayat_worker_task_seconds_bucket{source="worker",le="1"} 3
hayat_worker_task_seconds_bucket{source="worker",le="+Inf"} 4
hayat_worker_task_seconds_sum{source="worker"} 2.25
hayat_worker_task_seconds_count{source="worker"} 4
)gold";

TEST(WorkerAggregateTest, MergedHistogramExportBytesArePinned) {
  // Two workers' histogram deltas fold bucket-wise into one aggregate;
  // exporting it alone reproduces exactly what a coordinator that did no
  // local work would serve.
  resetWorkerCountersForTest();
  HistogramSnapshot d1;
  d1.name = "hayat_worker_task_seconds";
  d1.upperBounds = {0.25, 1.0};
  d1.counts = {1, 0, 1};
  d1.count = 2;
  d1.sum = 1.5;
  HistogramSnapshot d2 = d1;
  d2.counts = {0, 2, 0};
  d2.count = 2;
  d2.sum = 0.75;
  mergeWorkerHistograms({d1});
  mergeWorkerHistograms({d2});
  mergeWorkerCounters({{"hayat_worker_cache_push_stored_total", 2}});

  std::ostringstream out;
  writePrometheus(out, MetricsSnapshot{}, workerCounters(),
                  workerHistograms());
  resetWorkerCountersForTest();
  ASSERT_FALSE(dumpIfRegen("merged-worker.prom", out.str()))
      << "HAYAT_REGEN_GOLDEN is set; paste the dumped bytes";
  EXPECT_EQ(out.str(), kGoldenMergedWorkerProm);
}

const char* const kGoldenMetricsEnvelope =
    "HTTP/1.0 200 OK\r\n"
    "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
    "Content-Length: 5\r\n"
    "Connection: close\r\n\r\n"
    "body\n";

const char* const kGoldenNotFoundEnvelope =
    "HTTP/1.0 404 Not Found\r\n"
    "Content-Type: text/plain; charset=utf-8\r\n"
    "Content-Length: 10\r\n"
    "Connection: close\r\n\r\n"
    "not found\n";

TEST(MetricsEndpointGoldenTest, HttpEnvelopeBytesArePinned) {
  EXPECT_EQ(engine::workerHttpResponse(200, "body\n"), kGoldenMetricsEnvelope);
  EXPECT_EQ(engine::workerHttpResponse(404, "not found\n"),
            kGoldenNotFoundEnvelope);
}

TEST(MetricsEndpointGoldenTest, MetricsBodyIsValidPrometheusText) {
  // The live body carries process-global counter values, so the golden
  // pins structure rather than bytes: the request counter advances on
  // every scrape, telemetry on or off, and the body reports the count
  // that includes this scrape; every sample line must parse as
  // <name>[{labels}] <value>.
  ASSERT_FALSE(enabled());
  const std::uint64_t before =
      Registry::global().counter("hayat_worker_metrics_requests_total").value();
  const std::string response = engine::workerMetricsHttpResponse("/metrics");
  EXPECT_EQ(
      Registry::global().counter("hayat_worker_metrics_requests_total").value(),
      before + 1);
  ASSERT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  const std::string body = response.substr(split + 4);
  EXPECT_NE(body.find("# TYPE hayat_worker_metrics_requests_total counter\n"
                      "hayat_worker_metrics_requests_total " +
                      std::to_string(before + 1) + "\n"),
            std::string::npos)
      << body;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("hayat_", 0), 0u) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }

  EXPECT_EQ(engine::workerMetricsHttpResponse("/else"),
            kGoldenNotFoundEnvelope);
}

std::vector<SpanEvent> traceEvents() {
  SpanEvent a;
  a.name = "alpha";
  a.startNs = 1000;
  a.durationNs = 2500;
  a.threadId = 0;
  a.depth = 0;
  SpanEvent b;
  b.name = "be\"ta";  // exporter must escape the quote
  b.startNs = 2000;
  b.durationNs = 500;
  b.threadId = 1;
  b.depth = 1;
  return {a, b};
}

const char* const kGoldenTrace =
    R"gold({"traceEvents": [
{"name": "alpha", "cat": "hayat", "ph": "X", "ts": 1.000, "dur": 2.500, "pid": 42, "tid": 0, "args": {"depth": 0}},
{"name": "be\"ta", "cat": "hayat", "ph": "X", "ts": 2.000, "dur": 0.500, "pid": 42, "tid": 1, "args": {"depth": 1}}
]}
)gold";

TEST(ChromeTraceExportTest, BytesArePinnedAndParse) {
  std::ostringstream out;
  writeChromeTrace(out, traceEvents(), 42);
  ASSERT_FALSE(dumpIfRegen("trace.json", out.str()))
      << "HAYAT_REGEN_GOLDEN is set; paste the dumped bytes";
  EXPECT_EQ(out.str(), kGoldenTrace);
  EXPECT_TRUE(validateJson(out.str()));

  std::ostringstream empty;
  writeChromeTrace(empty, {}, 1);
  EXPECT_TRUE(validateJson(empty.str()));
}

TEST(ValidateJsonTest, AcceptsValidAndRejectsBroken) {
  EXPECT_TRUE(validateJson(R"({"a": [1, -2.5e-3, "x\n", true, null], "b": {}})"));
  EXPECT_TRUE(validateJson("[]"));
  EXPECT_FALSE(validateJson(""));
  EXPECT_FALSE(validateJson("{"));
  EXPECT_FALSE(validateJson("[1,]"));
  EXPECT_FALSE(validateJson("\"unterminated"));
  EXPECT_FALSE(validateJson("{\"a\": 1} trailing"));
  EXPECT_FALSE(validateJson(R"({"a": "\q"})"));
}

/// Scratch directory for the merge tests, removed on destruction.
class TempDir {
 public:
  TempDir() : path_(std::filesystem::temp_directory_path() /
                    ("hayat_telemetry_test_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter()++))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name, const std::string& content) {
    const std::string path = (path_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out << content;
    return path;
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  static int& counter() {
    static int n = 0;
    return n;
  }
  std::filesystem::path path_;
};

TEST(MergePrometheusTest, SumsCountersAndHistogramsMaxesGauges) {
  TempDir dir;
  const std::string a = dir.file("a.metrics.prom",
                                 "# TYPE m_total counter\n"
                                 "m_total 3\n"
                                 "# TYPE g gauge\n"
                                 "g 1.5\n"
                                 "# TYPE h histogram\n"
                                 "h_bucket{le=\"1\"} 1\n"
                                 "h_bucket{le=\"+Inf\"} 2\n"
                                 "h_sum 1.25\n"
                                 "h_count 2\n");
  const std::string b = dir.file("b.metrics.prom",
                                 "# TYPE m_total counter\n"
                                 "m_total 4\n"
                                 "m_total{source=\"worker\"} 2\n"
                                 "# TYPE g gauge\n"
                                 "g 0.5\n"
                                 "# TYPE h histogram\n"
                                 "h_bucket{le=\"1\"} 2\n"
                                 "h_bucket{le=\"+Inf\"} 3\n"
                                 "h_sum 2\n"
                                 "h_count 3\n");

  std::ostringstream out;
  ASSERT_TRUE(mergePrometheusFiles({a, b}, out));
  EXPECT_EQ(out.str(),
            "# TYPE m_total counter\n"
            "m_total 7\n"
            "m_total{source=\"worker\"} 2\n"
            "# TYPE g gauge\n"
            "g 1.5\n"
            "# TYPE h histogram\n"
            "h_bucket{le=\"1\"} 3\n"
            "h_bucket{le=\"+Inf\"} 5\n"
            "h_sum 3.25\n"
            "h_count 5\n");
}

TEST(MergePrometheusTest, RejectsSamplesWithoutADeclaredType) {
  TempDir dir;
  const std::string bad = dir.file("bad.metrics.prom", "mystery 3\n");
  std::ostringstream out;
  EXPECT_FALSE(mergePrometheusFiles({bad}, out));
  EXPECT_FALSE(mergePrometheusFiles({dir.path().string() + "/missing"}, out));
}

TEST(MergeChromeTraceTest, CombinesEventsIntoOneValidDocument) {
  TempDir dir;
  std::ostringstream one, two, empty;
  const std::vector<SpanEvent> events = traceEvents();
  writeChromeTrace(one, {events[0]}, 1);
  writeChromeTrace(two, {events[1]}, 2);
  writeChromeTrace(empty, {}, 3);
  const std::string a = dir.file("a.trace.json", one.str());
  const std::string b = dir.file("b.trace.json", two.str());
  const std::string c = dir.file("c.trace.json", empty.str());

  std::ostringstream out;
  ASSERT_TRUE(mergeChromeTraceFiles({a, b, c}, out));
  const std::string merged = out.str();
  EXPECT_TRUE(validateJson(merged));
  EXPECT_NE(merged.find("\"alpha\""), std::string::npos);
  EXPECT_NE(merged.find("\"pid\": 2"), std::string::npos);

  const std::string bad = dir.file("bad.trace.json", "{not json");
  EXPECT_FALSE(mergeChromeTraceFiles({a, bad}, out));
}

}  // namespace
}  // namespace hayat::telemetry

namespace hayat::engine {
namespace {

/// Small-but-real spec: 2 chips x 2 policies = 4 tasks, 2 epochs each.
ExperimentSpec testSpec() {
  ExperimentSpec spec;
  spec.name = "telemetry-test";
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
  for (const RunResult& r : table.runs) writeRunResult(out, r);
  return out.str();
}

SweepTable runLocal(const ExperimentSpec& spec) {
  ::unsetenv("HAYAT_DISPATCH");
  EngineConfig config;
  config.workers = 1;
  config.cache = false;
  return ExperimentEngine(config).run(spec);
}

TEST(WireResultMetricsTest, DeltasRideTheResultFrame) {
  const ExperimentSpec spec = testSpec();
  const std::vector<RunTask> tasks = ExperimentEngine::expand(spec);
  const RunResult computed =
      ExperimentEngine::runTask(tasks[0], spec.populationSeed);

  const std::string payload =
      encodeResult(2, computed, "c,hayat_lifetime_runs_total,5\n");
  int index = -1;
  RunResult decoded;
  telemetry::MetricDeltas deltas;
  decodeResult(payload, index, decoded, &deltas);
  EXPECT_EQ(index, 2);
  ASSERT_EQ(deltas.counters.size(), 1u);
  EXPECT_EQ(deltas.counters[0].first, "hayat_lifetime_runs_total");
  EXPECT_EQ(deltas.counters[0].second, 5u);

  std::ostringstream a, b;
  writeRunResult(a, computed);
  writeRunResult(b, decoded);
  EXPECT_EQ(a.str(), b.str());

  // A metrics-free frame decodes identically with or without the
  // out-parameter (wire compatibility with callers that don't ask).
  deltas.clear();
  decodeResult(encodeResult(0, computed), index, decoded, &deltas);
  EXPECT_TRUE(deltas.empty());
  decodeResult(encodeResult(0, computed), index, decoded);

  // Truncated or oversold metrics sections are malformed frames.
  EXPECT_THROW(decodeResult(encodeResult(0, computed) + "metrics,2\nc,x,1\n",
                            index, decoded, &deltas),
               Error);
}

TEST(TelemetryByteIdentityTest, EnabledCollectionDoesNotChangeResults) {
  const ExperimentSpec spec = testSpec();
  const SweepTable off = runLocal(spec);
  ASSERT_EQ(off.runs.size(), 4u);

  // Hayat's Tsafe guard tallies: one branch per evaluated candidate.
  telemetry::Registry& registry = telemetry::Registry::global();
  const char* const guardNames[] = {"hayat_policy_tsafe_self_reject_total",
                                    "hayat_policy_tsafe_hot_reject_total",
                                    "hayat_policy_tsafe_bound_admit_total",
                                    "hayat_policy_tsafe_gray_walk_total"};
  const auto guardSum = [&] {
    std::uint64_t sum = 0;
    for (const char* name : guardNames) sum += registry.counter(name).value();
    return sum;
  };
  const std::uint64_t guardsBefore = guardSum();
  const std::uint64_t candidatesBefore =
      registry.counter("hayat_policy_candidates_total").value();

  const telemetry::ScopedTelemetry on;
  const SweepTable withTelemetry = runLocal(spec);
  EXPECT_EQ(tableBytes(off), tableBytes(withTelemetry));
  // Collection actually happened while producing the identical table.
  EXPECT_GT(registry.counter("hayat_lifetime_runs_total").value(), 0u);
  const std::uint64_t candidates =
      registry.counter("hayat_policy_candidates_total").value() -
      candidatesBefore;
  EXPECT_GT(candidates, 0u);
  EXPECT_EQ(guardSum() - guardsBefore, candidates);
}

TEST(StartupBuildTelemetryTest, MemoMissesAreTimedUnderTheirHistograms) {
  // The four start-up memos register their build histograms during
  // static initialisation, before any lookup.
  const auto buildCount = [](const std::string& name) {
    for (const telemetry::HistogramSnapshot& h :
         telemetry::Registry::global().snapshot().histograms)
      if (h.name == name) return static_cast<std::int64_t>(h.count);
    return std::int64_t{-1};
  };
  for (const char* name :
       {"hayat_aging_table_build_seconds",
        "hayat_variation_sampler_build_seconds",
        "hayat_thermal_lu_build_seconds",
        "hayat_thermal_influence_build_seconds"})
    EXPECT_GE(buildCount(name), 0) << name;

  // Chips of a population seed no other test uses miss the aging-table
  // memo, so their table builds are timed.
  const std::int64_t before = buildCount("hayat_aging_table_build_seconds");
  ExperimentSpec spec = testSpec();
  spec.populationSeed = 0x5eed5eedull;
  {
    const telemetry::ScopedTelemetry on;
    (void)runLocal(spec);
  }
  EXPECT_GE(buildCount("hayat_aging_table_build_seconds") - before, 2);
}

TEST(DispatchTelemetryTest, WorkerCounterDeltasMergeOnTheCoordinator) {
  const ExperimentSpec spec = testSpec();
  const SweepTable serial = runLocal(spec);

  telemetry::resetWorkerCountersForTest();
  const telemetry::ScopedTelemetry on;
  EngineConfig config;
  config.workers = 1;
  config.cache = false;
  config.dispatch = "proc:2";
  const SweepTable dispatched = ExperimentEngine(config).run(spec);

  // Observation never perturbs: still bit-identical to the serial run.
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));

  // The forked workers streamed their counters back on Result frames;
  // every remotely completed lifetime run is visible in the aggregate.
  const std::map<std::string, std::uint64_t> workers =
      telemetry::workerCounters();
  const auto runs = workers.find("hayat_lifetime_runs_total");
  ASSERT_NE(runs, workers.end());
  EXPECT_GE(runs->second, 1u);
  EXPECT_LE(runs->second, 4u);
}

TEST(TelemetryConfigTest, ExplicitConfigurationWinsOverTheEnvironment) {
  // `--telemetry DIR` configures before any engine exists; an engine
  // built afterwards (the scheduler and the worker loop build one) must
  // not move the export to HAYAT_TELEMETRY or rename the role.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("hayat_telemetry_config_" + std::to_string(::getpid()));
  const std::string dirA = (root / "a").string();
  const std::string dirB = (root / "b").string();
  telemetry::configure(dirA, "sweep");
  ::setenv("HAYAT_TELEMETRY", dirB.c_str(), 1);
  (void)ExperimentEngine();
  ::unsetenv("HAYAT_TELEMETRY");
  const std::string dir = telemetry::exportDir();
  const std::string role = telemetry::exportRole();
  telemetry::setEnabled(false);  // configure() turned collection on
  std::filesystem::remove_all(root);
  EXPECT_EQ(dir, dirA);
  EXPECT_EQ(role, "sweep");
}

}  // namespace
}  // namespace hayat::engine
