#include "telemetry/span.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

namespace hayat::telemetry {

std::uint64_t nowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(const SpanEvent& event) {
  const std::scoped_lock lock(mutex_);
  ring_[next_] = event;
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::vector<SpanEvent> FlightRecorder::events() const {
  const std::scoped_lock lock(mutex_);
  std::vector<SpanEvent> out;
  const std::size_t retained =
      recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                               : ring_.size();
  out.reserve(retained);
  // Oldest retained event sits at next_ once the ring has wrapped.
  const std::size_t first =
      recorded_ < ring_.size() ? 0 : next_ % ring_.size();
  for (std::size_t i = 0; i < retained; ++i)
    out.push_back(ring_[(first + i) % ring_.size()]);
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  const std::scoped_lock lock(mutex_);
  return recorded_;
}

namespace {

struct RecorderDirectory {
  std::mutex mutex;
  std::vector<std::shared_ptr<FlightRecorder>> recorders;
};

RecorderDirectory& directory() {
  static RecorderDirectory* dir = new RecorderDirectory();  // never dies
  return *dir;
}

struct ThreadState {
  std::shared_ptr<FlightRecorder> recorder;
  std::uint32_t id = 0;
  std::uint16_t depth = 0;
};

ThreadState& threadState() {
  thread_local ThreadState state = [] {
    ThreadState s;
    s.recorder = std::make_shared<FlightRecorder>();
    RecorderDirectory& dir = directory();
    const std::scoped_lock lock(dir.mutex);
    s.id = static_cast<std::uint32_t>(dir.recorders.size());
    dir.recorders.push_back(s.recorder);
    return s;
  }();
  return state;
}

}  // namespace

FlightRecorder& threadRecorder() { return *threadState().recorder; }

std::vector<SpanEvent> collectAllSpans() {
  std::vector<std::shared_ptr<FlightRecorder>> recorders;
  {
    RecorderDirectory& dir = directory();
    const std::scoped_lock lock(dir.mutex);
    recorders = dir.recorders;
  }
  std::vector<SpanEvent> all;
  for (const auto& r : recorders) {
    const std::vector<SpanEvent> events = r->events();
    all.insert(all.end(), events.begin(), events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.startNs < b.startNs;
                   });
  return all;
}

void lockSpansForFork() {
  RecorderDirectory& dir = directory();
  dir.mutex.lock();
  for (const auto& r : dir.recorders) r->mutex_.lock();
}

void unlockSpansAfterFork() {
  RecorderDirectory& dir = directory();
  for (const auto& r : dir.recorders) r->mutex_.unlock();
  dir.mutex.unlock();
}

namespace {
std::atomic<std::uint32_t> g_spanSampleEvery{1};
}  // namespace

void setSpanSampling(std::uint32_t everyN) {
  g_spanSampleEvery.store(everyN == 0 ? 1 : everyN,
                          std::memory_order_relaxed);
}

std::uint32_t spanSampleEvery() {
  return g_spanSampleEvery.load(std::memory_order_relaxed);
}

bool sampleSpanSite(std::atomic<std::uint64_t>& siteCounter) {
  const std::uint32_t every = spanSampleEvery();
  if (every <= 1) return true;
  return siteCounter.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

Span::Span(const char* name) : Span(name, true) {}

Span::Span(const char* name, bool record) {
  if (!record || !enabled()) return;
  name_ = name;
  startNs_ = nowNanos();
  ThreadState& state = threadState();
  if (state.depth < UINT16_MAX) ++state.depth;
}

Span::~Span() {
  if (name_ == nullptr) return;
  ThreadState& state = threadState();
  if (state.depth > 0) --state.depth;
  SpanEvent event;
  event.name = name_;
  event.startNs = startNs_;
  event.durationNs = nowNanos() - startNs_;
  event.threadId = state.id;
  event.depth = state.depth;
  state.recorder->record(event);
}

}  // namespace hayat::telemetry
