#include "workload/thread_profile.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hayat {

ThreadProfile::ThreadProfile(std::vector<ThreadPhase> phases,
                             Hertz minFrequency)
    : phases_(std::move(phases)), minFrequency_(minFrequency) {
  HAYAT_REQUIRE(!phases_.empty(), "thread profile needs >= 1 phase");
  HAYAT_REQUIRE(minFrequency > 0.0, "minimum frequency must be positive");
  for (const ThreadPhase& p : phases_) {
    HAYAT_REQUIRE(p.duration > 0.0, "phase duration must be positive");
    HAYAT_REQUIRE(p.dynamicPower >= 0.0, "negative phase power");
    HAYAT_REQUIRE(p.dutyCycle >= 0.0 && p.dutyCycle <= 1.0,
                  "phase duty cycle must be in [0, 1]");
    HAYAT_REQUIRE(p.ipc > 0.0, "phase IPC must be positive");
    period_ += p.duration;
  }
}

const ThreadPhase& ThreadProfile::phase(int i) const {
  HAYAT_REQUIRE(i >= 0 && i < phaseCount(), "phase index out of range");
  return phases_[static_cast<std::size_t>(i)];
}

const ThreadPhase& ThreadProfile::phaseAt(Seconds t) const {
  return phaseAtOffset(periodOffset(t));
}

Seconds ThreadProfile::periodOffset(Seconds t) const {
  HAYAT_REQUIRE(t >= 0.0, "negative trace time");
  return std::fmod(t, period_);
}

const ThreadPhase& ThreadProfile::phaseAtOffset(Seconds within) const {
  for (const ThreadPhase& p : phases_) {
    if (within < p.duration) return p;
    within -= p.duration;
  }
  return phases_.back();  // exact period boundary
}

Watts ThreadProfile::averagePower() const {
  double acc = 0.0;
  for (const ThreadPhase& p : phases_) acc += p.dynamicPower * p.duration;
  return acc / period_;
}

double ThreadProfile::averageDuty() const {
  double acc = 0.0;
  for (const ThreadPhase& p : phases_) acc += p.dutyCycle * p.duration;
  return acc / period_;
}

Watts ThreadProfile::peakPower() const {
  double peak = 0.0;
  for (const ThreadPhase& p : phases_) peak = std::max(peak, p.dynamicPower);
  return peak;
}

double ThreadProfile::peakDuty() const {
  double peak = 0.0;
  for (const ThreadPhase& p : phases_) peak = std::max(peak, p.dutyCycle);
  return peak;
}

double ThreadProfile::instructionsPerSecond(Hertz frequency) const {
  HAYAT_REQUIRE(frequency >= 0.0, "negative frequency");
  double ipcAcc = 0.0;
  for (const ThreadPhase& p : phases_) ipcAcc += p.ipc * p.duration;
  return (ipcAcc / period_) * frequency;
}

}  // namespace hayat
