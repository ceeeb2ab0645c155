#include "engine/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/error.hpp"

namespace hayat::engine {

namespace detail {
std::atomic<bool> gFaultsInstalled{false};
}  // namespace detail

namespace {

struct CoordinatorFaultState {
  std::mutex mutex;
  std::vector<FaultRule> rules;  // Drop/Corrupt only
  long framesWritten = 0;
};

CoordinatorFaultState& coordState() {
  static CoordinatorFaultState* s = new CoordinatorFaultState();
  return *s;
}

long parseLongValue(const std::string& rule, const std::string& text) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  HAYAT_REQUIRE(end == text.c_str() + text.size() && !text.empty(),
                "fault plan: bad number '" + text + "' in rule '" + rule +
                    "'");
  return value;
}

/// Parses the `key=value,key=value` tail of one rule into the fields the
/// verb expects; rejects unknown or missing keys.
void parseArgs(const std::string& rule, const std::string& tail,
               FaultRule& out, bool wantFrame, bool wantMs, bool wantAfter) {
  bool haveFrame = false, haveWorker = false, haveMs = false,
       haveAfter = false;
  std::size_t start = 0;
  while (start < tail.size()) {
    std::size_t end = tail.find(',', start);
    if (end == std::string::npos) end = tail.size();
    const std::string part = tail.substr(start, end - start);
    start = end + 1;
    const std::size_t eq = part.find('=');
    HAYAT_REQUIRE(eq != std::string::npos,
                  "fault plan: expected key=value, got '" + part +
                      "' in rule '" + rule + "'");
    const std::string key = part.substr(0, eq);
    const long value = parseLongValue(rule, part.substr(eq + 1));
    if (key == "frame" && wantFrame) {
      out.frame = value;
      haveFrame = true;
    } else if (key == "worker" && !wantFrame) {
      out.worker = static_cast<int>(value);
      haveWorker = true;
    } else if (key == "ms" && wantMs) {
      out.ms = value;
      haveMs = true;
    } else if (key == "after" && wantAfter) {
      out.after = value;
      haveAfter = true;
    } else {
      throw Error("fault plan: unexpected key '" + key + "' in rule '" +
                  rule + "'");
    }
  }
  if (wantFrame) {
    HAYAT_REQUIRE(haveFrame && out.frame >= 1,
                  "fault plan: rule '" + rule +
                      "' needs frame=N with N >= 1");
  } else {
    HAYAT_REQUIRE(haveWorker && out.worker >= 0,
                  "fault plan: rule '" + rule +
                      "' needs worker=W with W >= 0");
  }
  if (wantMs)
    HAYAT_REQUIRE(haveMs && out.ms >= 0,
                  "fault plan: rule '" + rule + "' needs ms=M with M >= 0");
  if (wantAfter)
    HAYAT_REQUIRE(haveAfter && out.after >= 0,
                  "fault plan: rule '" + rule +
                      "' needs after=K with K >= 0");
}

}  // namespace

FaultPlan parseFaultPlan(const std::string& text) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    const std::string rule = text.substr(start, end - start);
    start = end + 1;
    if (rule.empty()) continue;
    const std::size_t colon = rule.find(':');
    HAYAT_REQUIRE(colon != std::string::npos,
                  "fault plan: expected verb:args, got '" + rule + "'");
    const std::string verb = rule.substr(0, colon);
    const std::string tail = rule.substr(colon + 1);
    FaultRule r;
    if (verb == "drop") {
      r.kind = FaultRule::Kind::Drop;
      parseArgs(rule, tail, r, /*frame=*/true, /*ms=*/false,
                /*after=*/false);
    } else if (verb == "corrupt") {
      r.kind = FaultRule::Kind::Corrupt;
      parseArgs(rule, tail, r, true, false, false);
    } else if (verb == "delay") {
      r.kind = FaultRule::Kind::Delay;
      parseArgs(rule, tail, r, false, true, false);
    } else if (verb == "die") {
      r.kind = FaultRule::Kind::Die;
      parseArgs(rule, tail, r, false, false, true);
    } else if (verb == "stall") {
      r.kind = FaultRule::Kind::Stall;
      parseArgs(rule, tail, r, false, false, true);
    } else {
      throw Error("fault plan: unknown verb '" + verb + "'");
    }
    plan.rules.push_back(r);
  }
  return plan;
}

void installCoordinatorFaults(const FaultPlan& plan) {
  CoordinatorFaultState& s = coordState();
  const std::scoped_lock lock(s.mutex);
  s.rules.clear();
  for (const FaultRule& r : plan.rules)
    if (r.kind == FaultRule::Kind::Drop ||
        r.kind == FaultRule::Kind::Corrupt)
      s.rules.push_back(r);
  s.framesWritten = 0;
  detail::gFaultsInstalled.store(!s.rules.empty(),
                                 std::memory_order_relaxed);
}

void clearCoordinatorFaults() {
  CoordinatorFaultState& s = coordState();
  const std::scoped_lock lock(s.mutex);
  s.rules.clear();
  s.framesWritten = 0;
  detail::gFaultsInstalled.store(false, std::memory_order_relaxed);
}

WriteFault nextWriteFault() {
  CoordinatorFaultState& s = coordState();
  const std::scoped_lock lock(s.mutex);
  const long frame = ++s.framesWritten;
  for (const FaultRule& r : s.rules) {
    if (r.frame != frame) continue;
    return r.kind == FaultRule::Kind::Drop ? WriteFault::Drop
                                           : WriteFault::Corrupt;
  }
  return WriteFault::None;
}

WorkerFaults workerFaultsFromEnv(int slot) {
  WorkerFaults out;
  const char* planText = std::getenv("HAYAT_FAULT_PLAN");
  if (planText == nullptr || planText[0] == '\0') return out;
  if (slot < 0) {
    const char* slotText = std::getenv("HAYAT_FAULT_WORKER");
    if (slotText == nullptr || slotText[0] == '\0') return out;
    slot = static_cast<int>(std::strtol(slotText, nullptr, 10));
  }
  FaultPlan plan;
  try {
    plan = parseFaultPlan(planText);
  } catch (const Error& e) {
    // The coordinator validates the plan before any worker spawns; a
    // worker must never die on the env it inherited.
    std::fprintf(stderr, "hayat worker: ignoring fault plan: %s\n",
                 e.what());
    return out;
  }
  for (const FaultRule& r : plan.rules) {
    if (r.worker != slot) continue;
    switch (r.kind) {
      case FaultRule::Kind::Delay:
        out.delayMs = r.ms;
        break;
      case FaultRule::Kind::Die:
        out.dieAfter = r.after;
        break;
      case FaultRule::Kind::Stall:
        out.stallAfter = r.after;
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace hayat::engine
