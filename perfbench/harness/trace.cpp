#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

std::uint64_t Tracer::now() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count());
}

int Tracer::begin(const char* name, int parent, const std::string& task) {
  if (!enabled_) return -1;
  const std::uint64_t start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.name = name;
  span.task = task;
  span.startNs = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::uint64_t stop = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].endNs = stop;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const SpanRecord& s : spans())
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"task\":\"" << s.task
        << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
        << "}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> selfSecondsByLayer(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                s.endNs);

  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    auto& kids = children[static_cast<std::size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to s.
    std::uint64_t covered = 0, reach = s.startNs;
    for (const auto& [from, to] : kids) {
      const std::uint64_t lo = std::max(from, reach);
      const std::uint64_t hi = std::min(to, s.endNs);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(to, s.endNs));
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
  }
  return out;
}

std::vector<double> spanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (s.name == name)
      out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
  return out;
}

}  // namespace perfbench
