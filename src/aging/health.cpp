#include "aging/health.hpp"

#include <atomic>

#include "common/alloc_counter.hpp"
#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace hayat {

namespace {
std::atomic<std::uint64_t> advanceAllocs{0};
telemetry::Counter& advanceAllocsTotal =
    telemetry::Registry::global().counter("hayat_health_advance_allocs");
}  // namespace

std::uint64_t healthAdvanceAllocs() { return advanceAllocs.load(); }

void CoreAgingState::advance(const AgingTable& table, Kelvin temperature,
                             double duty, Years duration) {
  AgingTable::Cursor cursor;
  advance(table, temperature, duty, duration, cursor);
}

void CoreAgingState::advance(const AgingTable& table, Kelvin temperature,
                             double duty, Years duration,
                             AgingTable::Cursor& cursor) {
  HAYAT_REQUIRE(duration >= 0.0, "negative aging duration");
  HAYAT_REQUIRE(duty >= 0.0 && duty <= 1.0, "duty cycle must be in [0, 1]");
  if (duration == 0.0 || duty < kAgingDutyEpsilon) return;
  delayFactor_ = table.advanceDelayFactor(temperature, duty, duration,
                                          delayFactor_, cursor);
}

CoreAgingState CoreAgingState::fromDelayFactor(double delayFactor) {
  HAYAT_REQUIRE(delayFactor >= 1.0, "delay factor must be >= 1");
  CoreAgingState s;
  s.delayFactor_ = delayFactor;
  return s;
}

HealthMap::HealthMap(std::vector<Hertz> initialFmax)
    : initial_(std::move(initialFmax)),
      states_(initial_.size()) {
  HAYAT_REQUIRE(!initial_.empty(), "health map needs >= 1 core");
  for (Hertz f : initial_)
    HAYAT_REQUIRE(f > 0.0, "initial fmax must be positive");
}

Hertz HealthMap::initialFmax(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return initial_[static_cast<std::size_t>(core)];
}

Hertz HealthMap::currentFmax(int core) const {
  return initialFmax(core) * health(core);
}

double HealthMap::health(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return states_[static_cast<std::size_t>(core)].health();
}

void HealthMap::advance(int core, const AgingTable& table, Kelvin temperature,
                        double duty, Years duration) {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  states_[static_cast<std::size_t>(core)].advance(table, temperature, duty,
                                                  duration);
}

void HealthMap::advanceAll(const AgingTable& table, const double* temperature,
                           const double* duty, Years duration) {
  const int n = coreCount();
  const auto sn = static_cast<std::size_t>(n);
  if (cursors_.size() != sn) {
    cursors_.assign(sn, AgingTable::Cursor{});
    factors_.resize(sn);
  }
  for (std::size_t i = 0; i < sn; ++i)
    factors_[i] = states_[i].delayFactor();

  const std::uint64_t allocsBefore = heapAllocationCount();
  table.advanceBatch(temperature, duty, n, duration, factors_.data(),
                     cursors_.data());
  const std::uint64_t allocs = heapAllocationCount() - allocsBefore;
  advanceAllocs.fetch_add(allocs, std::memory_order_relaxed);

  for (std::size_t i = 0; i < sn; ++i)
    states_[i] = CoreAgingState::fromDelayFactor(factors_[i]);
  if (telemetry::enabled() && allocs > 0) advanceAllocsTotal.add(allocs);
}

std::vector<Hertz> HealthMap::currentFmaxAll() const {
  std::vector<Hertz> out(initial_.size());
  for (int i = 0; i < coreCount(); ++i)
    out[static_cast<std::size_t>(i)] = currentFmax(i);
  return out;
}

std::vector<double> HealthMap::healthAll() const {
  std::vector<double> out(initial_.size());
  for (int i = 0; i < coreCount(); ++i)
    out[static_cast<std::size_t>(i)] = health(i);
  return out;
}

CoreAgingState& HealthMap::state(int core) {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return states_[static_cast<std::size_t>(core)];
}

const CoreAgingState& HealthMap::state(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return states_[static_cast<std::size_t>(core)];
}

}  // namespace hayat
