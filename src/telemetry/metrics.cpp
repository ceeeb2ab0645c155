#include "telemetry/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace hayat::telemetry {

namespace detail {
std::atomic<bool> gEnabled{false};
}  // namespace detail

void setEnabled(bool on) {
  detail::gEnabled.store(on, std::memory_order_relaxed);
}

namespace {

/// Stable per-thread shard index: threads are striped across shards in
/// registration order, which spreads a worker pool evenly.
unsigned threadShard() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned shard = next.fetch_add(1);
  return shard;
}

}  // namespace

void Counter::add(std::uint64_t n) {
  shards_[threadShard() % kShards].value.fetch_add(n,
                                                   std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_)
    total += s.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)), counts_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      // Misdeclared bounds would silently misbucket forever; fail loudly
      // (telemetry must never throw into instrumented code, so abort).
      std::fprintf(stderr,
                   "telemetry: histogram bounds must be strictly "
                   "increasing\n");
      std::abort();
    }
  }
}

void Histogram::observe(double value) {
  std::size_t bucket = bounds_.size();  // overflow by default
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  return total_.load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

std::vector<std::uint64_t> Histogram::bucketCounts() const {
  std::vector<std::uint64_t> out;
  out.reserve(counts_.size());
  for (const auto& c : counts_)
    out.push_back(c.load(std::memory_order_relaxed));
  return out;
}

double Histogram::percentile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  const std::vector<std::uint64_t> counts = bucketCounts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= rank && counts[i] > 0) {
      if (i == bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double frac =
          (rank - cumulative) / static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed
  return *instance;
}

Counter& Registry::counter(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::vector<double>& upperBounds) {
  const std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(upperBounds);
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_)
    snap.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_)
    snap.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.upperBounds = h->upperBounds();
    hs.counts = h->bucketCounts();
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void Registry::resetAllForTest() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string encodeCounterDeltas(std::map<std::string, std::uint64_t>& lastSent,
                                const Registry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::uint64_t previous = lastSent[name];
    if (value <= previous) continue;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value - previous);
    out += "c," + name + ',' + buf + '\n';
    lastSent[name] = value;
  }
  return out;
}

namespace {

/// Digits only, in range: these frames come from workers outside the
/// process, and strtoull would take "-1" (as 2^64 - 1), " 7" or "+7",
/// and saturate on overflow.
bool parseU64(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc() && stop == end;
}

/// A finite double (strtod also takes "nan" and "inf").
bool parseDouble(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && !text.empty() &&
         std::isfinite(out);
}

bool parseCounterLine(
    const std::string& line,
    std::vector<std::pair<std::string, std::uint64_t>>& out) {
  const std::size_t comma = line.rfind(',');
  if (comma <= 2 || comma == std::string::npos) return false;
  const std::string name = line.substr(2, comma - 2);
  std::uint64_t delta = 0;
  if (name.empty() || !parseU64(line.substr(comma + 1), delta)) return false;
  out.emplace_back(name, delta);
  return true;
}

std::vector<std::string> splitOn(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// "h,<name>,<countDelta>,<sumDelta>,<le>:<d>,...,+Inf:<d>"
bool parseHistogramLine(const std::string& line,
                        std::vector<HistogramSnapshot>& out) {
  const std::vector<std::string> parts = splitOn(line.substr(2), ',');
  if (parts.size() < 4) return false;
  HistogramSnapshot h;
  h.name = parts[0];
  if (h.name.empty()) return false;
  if (!parseU64(parts[1], h.count)) return false;
  if (!parseDouble(parts[2], h.sum)) return false;
  for (std::size_t i = 3; i < parts.size(); ++i) {
    const std::size_t colon = parts[i].rfind(':');
    if (colon == std::string::npos || colon == 0) return false;
    const std::string le = parts[i].substr(0, colon);
    std::uint64_t bucketDelta = 0;
    if (!parseU64(parts[i].substr(colon + 1), bucketDelta)) return false;
    const bool isLast = i + 1 == parts.size();
    if (isLast) {
      if (le != "+Inf") return false;
    } else {
      double bound = 0.0;
      if (!parseDouble(le, bound)) return false;
      if (!h.upperBounds.empty() && bound <= h.upperBounds.back())
        return false;
      h.upperBounds.push_back(bound);
    }
    h.counts.push_back(bucketDelta);
  }
  out.push_back(std::move(h));
  return true;
}

}  // namespace

bool decodeCounterDeltas(
    const std::string& text,
    std::vector<std::pair<std::string, std::uint64_t>>& out) {
  out.clear();
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.compare(0, 2, "c,") != 0) return false;
    if (!parseCounterLine(line, out)) return false;
  }
  return true;
}

std::string encodeHistogramDeltas(
    std::map<std::string, HistogramSnapshot>& lastSent) {
  const MetricsSnapshot snap = Registry::global().snapshot();
  std::string out;
  for (const HistogramSnapshot& h : snap.histograms) {
    HistogramSnapshot& previous = lastSent[h.name];
    const bool layoutMatches = previous.upperBounds == h.upperBounds &&
                               previous.counts.size() == h.counts.size();
    const std::uint64_t countDelta =
        layoutMatches ? h.count - previous.count : h.count;
    if (countDelta == 0) continue;
    const double sumDelta = layoutMatches ? h.sum - previous.sum : h.sum;
    char buf[80];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ",%.17g", countDelta,
                  sumDelta);
    out += "h," + h.name + ',' + buf;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      const std::uint64_t bucketDelta =
          layoutMatches ? h.counts[i] - previous.counts[i] : h.counts[i];
      if (i < h.upperBounds.size()) {
        std::snprintf(buf, sizeof(buf), ",%.17g:%" PRIu64,
                      h.upperBounds[i], bucketDelta);
      } else {
        std::snprintf(buf, sizeof(buf), ",+Inf:%" PRIu64, bucketDelta);
      }
      out += buf;
    }
    out += '\n';
    previous = h;
  }
  return out;
}

bool decodeMetricDeltas(const std::string& text, MetricDeltas& out) {
  out.clear();
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.compare(0, 2, "c,") == 0) {
      if (!parseCounterLine(line, out.counters)) return false;
    } else if (line.compare(0, 2, "h,") == 0) {
      if (!parseHistogramLine(line, out.histograms)) return false;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace hayat::telemetry
