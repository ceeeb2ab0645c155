// Deterministic fault injection for the worker wire layer.
//
// Recovery paths (slow worker, dropped or corrupt frame, wedged worker,
// worker death mid-sweep) must be exercised by name in tests, not by
// racing real processes and hoping a crash lands in the right window.
// HAYAT_FAULT_PLAN describes a schedule of faults in a tiny grammar:
//
//   drop:frame=N        coordinator: swallow its N-th outbound frame
//   corrupt:frame=N     coordinator: mangle the payload of frame N
//   delay:worker=W,ms=M worker slot W: sleep M ms before every Result
//   die:worker=W,after=K worker slot W: _exit(43) after K Results
//   stall:worker=W,after=K worker slot W: hang before task K+1
//
// Rules are ';'-separated (`drop:frame=3;die:worker=2,after=5`).  Frame
// ordinals are 1-based and count every frame the coordinator writes
// after the plan is installed (Spec frames included), so a plan plus a
// fixed topology names one exact frame.  Worker rules key on the lane
// index the scheduler spawns the worker for (scheduler.hpp; exported to
// exec'd children as HAYAT_FAULT_WORKER), so "worker 2" means the same
// lane on every run.
//
// The coordinator side hooks writeMessage() at the transport boundary:
// a dropped frame is reported as written but never hits the socket (the
// peer sees silence, exactly like a lost packet), a corrupted frame
// keeps valid framing but flips payload bytes (the peer sees a decode
// error, exactly like bit rot).  Worker-side rules are read by
// runWorkerLoop() from the environment; forked children disarm any
// inherited coordinator-side state so a plan never double-fires.
#pragma once

#include <atomic>
#include <string>
#include <vector>

namespace hayat::engine {

struct FaultRule {
  enum class Kind { Drop, Corrupt, Delay, Die, Stall };
  Kind kind = Kind::Drop;
  long frame = 0;   ///< Drop/Corrupt: 1-based outbound frame ordinal
  int worker = -1;  ///< Delay/Die/Stall: scheduler lane index
  long ms = 0;      ///< Delay: sleep duration
  long after = 0;   ///< Die/Stall: Results served before the fault fires
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  bool empty() const { return rules.empty(); }
};

/// Parses the HAYAT_FAULT_PLAN grammar; throws hayat::Error on any
/// malformed rule (unknown verb, missing key, non-numeric value).
FaultPlan parseFaultPlan(const std::string& text);

namespace detail {
extern std::atomic<bool> gFaultsInstalled;
}  // namespace detail

/// True when a coordinator-side plan is active — the one branch
/// writeMessage() pays on the hot path when fault injection is off.
inline bool faultsInstalled() {
  return detail::gFaultsInstalled.load(std::memory_order_relaxed);
}

/// Installs the coordinator-side rules (drop/corrupt) of `plan` in this
/// process and resets the outbound frame counter to zero, so the same
/// plan reproduces the same schedule run after run.  Worker-side rules
/// are ignored here (workers read them from the environment).
void installCoordinatorFaults(const FaultPlan& plan);

/// Removes any installed plan (scheduler teardown calls it so one test's
/// plan cannot leak into the next).
void clearCoordinatorFaults();

/// Lock-free half of clearCoordinatorFaults() for a forked worker: the
/// inherited rules stop firing without touching the fault mutex, which
/// another coordinator thread may have held at fork time.
inline void disarmCoordinatorFaults() {
  detail::gFaultsInstalled.store(false, std::memory_order_relaxed);
}

/// The action writeMessage() must take for the frame it is about to
/// write.  Counts one outbound frame per call.
enum class WriteFault { None, Drop, Corrupt };
WriteFault nextWriteFault();

/// Worker-side view of the plan: the rules addressed to `slot` (< 0:
/// this process's HAYAT_FAULT_WORKER), read from HAYAT_FAULT_PLAN.  A
/// malformed plan is ignored here — the coordinator already failed
/// loudly.
struct WorkerFaults {
  long delayMs = 0;     ///< sleep before each Result write (0: none)
  long dieAfter = -1;   ///< _exit(43) after this many Results (-1: never)
  long stallAfter = -1; ///< hang before serving the next task (-1: never)
};
WorkerFaults workerFaultsFromEnv(int slot = -1);

/// Exit code a `die:` rule uses, distinct from decode failures (1).
inline constexpr int kFaultDeathExitCode = 43;

}  // namespace hayat::engine
