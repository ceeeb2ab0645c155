// Per-thread execution profiles.
//
// The paper drives its simulator with "power and performance traces
// obtained through cycle-accurate simulations from integrated closed-loop
// Gem5 and McPAT" runs of Parsec.  A thread profile here is the
// distilled form those traces take by the time the run-time system
// consumes them: a cyclic sequence of phases, each with a dynamic power
// (at nominal frequency), a duty cycle (PMOS stress fraction), and an IPC,
// plus the thread's minimum frequency f_min derived from its throughput
// constraint (Section V: "throughput constraints for these tasks as a
// function of the minimum required frequency they need to run on").
#pragma once

#include <vector>

#include "common/units.hpp"

namespace hayat {

/// One phase of a thread's execution trace.
struct ThreadPhase {
  Seconds duration = 1.0;       ///< phase length in trace time
  Watts dynamicPower = 3.0;     ///< at nominal frequency and chip Vdd
  double dutyCycle = 0.5;       ///< PMOS stress fraction in [0, 1]
  double ipc = 1.0;             ///< instructions per cycle (for IPS)
};

/// A cyclic phase trace plus the thread's throughput constraint.
class ThreadProfile {
 public:
  ThreadProfile(std::vector<ThreadPhase> phases, Hertz minFrequency);

  /// The thread's minimum frequency to meet its deadline/throughput.
  Hertz minFrequency() const { return minFrequency_; }

  int phaseCount() const { return static_cast<int>(phases_.size()); }
  const ThreadPhase& phase(int i) const;

  /// Total length of one trace period.
  Seconds period() const { return period_; }

  /// Phase active at trace time t (the trace repeats cyclically):
  /// phaseAtOffset(periodOffset(t)).
  const ThreadPhase& phaseAt(Seconds t) const;

  /// Offset of trace time t >= 0 into its period, fmod(t, period()).
  /// Exact, so it increases with t between two period wraps.
  Seconds periodOffset(Seconds t) const;

  /// Phase active at period offset `within`.  Non-decreasing in
  /// `within`: durations are subtracted in phase order and each rounded
  /// subtraction is monotone.
  const ThreadPhase& phaseAtOffset(Seconds within) const;

  /// Time-weighted average dynamic power across one period.
  Watts averagePower() const;

  /// Time-weighted average duty cycle across one period.
  double averageDuty() const;

  /// Worst-case (maximum) dynamic power across phases.
  Watts peakPower() const;

  /// Worst-case duty cycle across phases.
  double peakDuty() const;

  /// Throughput at frequency f [instructions per second], using the
  /// period-average IPC.
  double instructionsPerSecond(Hertz frequency) const;

 private:
  std::vector<ThreadPhase> phases_;
  Hertz minFrequency_;
  Seconds period_ = 0.0;
};

}  // namespace hayat
