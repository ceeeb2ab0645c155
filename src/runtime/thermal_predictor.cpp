#include "runtime/thermal_predictor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>

#include "common/error.hpp"

namespace hayat {

namespace {

std::atomic<std::uint64_t> baselineNanos{0};

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII bracket feeding predictorBaselineNanos().
class BaselineTimer {
 public:
  BaselineTimer() : t0_(nowNs()) {}
  ~BaselineTimer() {
    baselineNanos.fetch_add(nowNs() - t0_, std::memory_order_relaxed);
  }
  BaselineTimer(const BaselineTimer&) = delete;
  BaselineTimer& operator=(const BaselineTimer&) = delete;

 private:
  std::uint64_t t0_;
};

/// Canonical index-order sum — the single definition every
/// temperatureSum producer uses, so sums from different paths agree
/// bitwise.
double canonicalSum(const Vector& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc;
}

/// max_i v[i] (order-independent, so every producer agrees bitwise).
double canonicalMax(const Vector& v) {
  double acc = -1.7976931348623157e308;
  for (const double x : v) acc = std::max(acc, x);
  return acc;
}

/// Lowest i attaining canonicalMax(v) (strictly-greater updates in index
/// order — the one canonical rule every producer uses).
int canonicalArgMax(const Vector& v) {
  int arg = 0;
  double acc = -1.7976931348623157e308;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] > acc) {
      acc = v[i];
      arg = static_cast<int>(i);
    }
  }
  return arg;
}

/// out[i] = base[i] + col[i] * delta for all i.  predictWithCandidateInto
/// and commitPlacement both route through this one function (the latter
/// with out == base, which reads each element before overwriting it), so
/// the committed baseline is bitwise the promoted what-if by
/// construction — one compiled loop, one contraction choice.
void addColumnScaled(const double* col, double delta, const double* base,
                     double* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = base[i] + col[i] * delta;
}

/// One superposition sweep: out[i] = ambient + sum_j K(i,j) * s[j] with
/// each out[i] summed in index order j = 0..n-1 — the row dot product's
/// exact add chain — computed column by column over the transposed
/// kernel `kt` (row j of kt is column j of K).  A tile of eight rows
/// keeps eight independent chains in registers, so the sweep advances
/// eight adds per column element instead of waiting on one chain; every
/// chain still adds the same products in the same order, so the result
/// is bitwise the row-order product.  Rows past the last full tile run
/// the same chain one at a time.  `out` must not alias `s`.
void influenceSweep(const double* kt, int n, double ambient, const double* s,
                    double* out) {
  const auto stride = static_cast<std::size_t>(n);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    double a0 = ambient, a1 = ambient, a2 = ambient, a3 = ambient;
    double a4 = ambient, a5 = ambient, a6 = ambient, a7 = ambient;
    const double* col = kt + i;
    for (int j = 0; j < n; ++j, col += stride) {
      const double sj = s[j];
      a0 += col[0] * sj;
      a1 += col[1] * sj;
      a2 += col[2] * sj;
      a3 += col[3] * sj;
      a4 += col[4] * sj;
      a5 += col[5] * sj;
      a6 += col[6] * sj;
      a7 += col[7] * sj;
    }
    out[i] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
    out[i + 4] = a4;
    out[i + 5] = a5;
    out[i + 6] = a6;
    out[i + 7] = a7;
  }
  for (; i < n; ++i) {
    double acc = ambient;
    const double* col = kt + i;
    for (int j = 0; j < n; ++j, col += stride) acc += *col * s[j];
    out[i] = acc;
  }
}

}  // namespace

std::uint64_t predictorBaselineNanos() {
  return baselineNanos.load(std::memory_order_relaxed);
}

void resetPredictorBaselineNanos() {
  baselineNanos.store(0, std::memory_order_relaxed);
}

ThermalPredictor::ThermalPredictor(const ThermalModel& thermal,
                                   const LeakageModel& leakage,
                                   int leakageIterations)
    : thermal_(&thermal),
      leakage_(&leakage),
      leakageIterations_(leakageIterations),
      profile_(&thermal.coreInfluenceProfile()) {
  HAYAT_REQUIRE(leakageIterations >= 0, "negative leakage iteration count");
}

int ThermalPredictor::coreCount() const { return thermal_->coreCount(); }

const double* ThermalPredictor::kernelColumn(int c) const {
  return profile_->transposed.data().data() +
         static_cast<std::size_t>(c) *
             static_cast<std::size_t>(profile_->transposed.cols());
}

double ThermalPredictor::columnSum(int c) const {
  return profile_->columnSums[static_cast<std::size_t>(c)];
}

Vector ThermalPredictor::predict(const Vector& dynamicPower,
                                 const std::vector<bool>& poweredOn) const {
  Vector temps;
  Vector scratch;
  predictInto(dynamicPower, poweredOn, temps, scratch);
  return temps;
}

void ThermalPredictor::predictInto(const Vector& dynamicPower,
                                   const std::vector<bool>& poweredOn,
                                   Vector& out, Vector& scratch) const {
  const int n = coreCount();
  HAYAT_REQUIRE(static_cast<int>(dynamicPower.size()) == n,
                "dynamic power size mismatch");
  HAYAT_REQUIRE(static_cast<int>(poweredOn.size()) == n,
                "power state size mismatch");
  const Kelvin ambient = thermal_->config().ambient;

  out.assign(static_cast<std::size_t>(n), ambient);
  scratch.resize(static_cast<std::size_t>(n));
  // Superposition of dynamic profiles, then leakage-correction sweeps.
  for (int sweep = 0; sweep <= leakageIterations_; ++sweep) {
    for (int i = 0; i < n; ++i) {
      const auto s = static_cast<std::size_t>(i);
      scratch[s] = dynamicPower[s] +
                   leakage_->coreLeakage(i, out[s], poweredOn[s]);
    }
    influenceSweep(profile_->transposed.data().data(), n, ambient,
                   scratch.data(), out.data());
  }
}

ThermalPredictor::Baseline ThermalPredictor::makeBaseline(
    const Vector& dynamicPower, const std::vector<bool>& poweredOn) const {
  const BaselineTimer timer;
  Baseline b;
  b.dynamicPower = dynamicPower;
  b.poweredOn = poweredOn;
  b.temperatures = predict(dynamicPower, poweredOn);
  b.temperatureSum = canonicalSum(b.temperatures);
  b.temperatureMax = canonicalMax(b.temperatures);
  b.temperatureMaxIndex = canonicalArgMax(b.temperatures);
  return b;
}

void ThermalPredictor::refreshBaseline(Baseline& baseline,
                                       Vector& scratch) const {
  const BaselineTimer timer;
  predictInto(baseline.dynamicPower, baseline.poweredOn,
              baseline.temperatures, scratch);
  baseline.temperatureSum = canonicalSum(baseline.temperatures);
  baseline.temperatureMax = canonicalMax(baseline.temperatures);
  baseline.temperatureMaxIndex = canonicalArgMax(baseline.temperatures);
}

Vector ThermalPredictor::predictWithCandidate(const Baseline& baseline,
                                              int candidateCore,
                                              Watts addedPower) const {
  Vector temps;
  predictWithCandidateInto(baseline, candidateCore, addedPower, temps);
  return temps;
}

void ThermalPredictor::predictWithCandidateInto(const Baseline& baseline,
                                                int candidateCore,
                                                Watts addedPower,
                                                Vector& out) const {
  const int n = coreCount();
  HAYAT_REQUIRE(candidateCore >= 0 && candidateCore < n,
                "candidate core out of range");
  HAYAT_REQUIRE(addedPower >= 0.0, "negative candidate power");
  HAYAT_REQUIRE(static_cast<int>(baseline.temperatures.size()) == n,
                "baseline size mismatch");

  // Delta power on the candidate: its dynamic load plus the leakage jump
  // from gated to active (evaluated at the baseline temperature — the
  // superposition step; the fine leakage-temperature interaction is a
  // second-order effect the predictor deliberately approximates).
  const auto c = static_cast<std::size_t>(candidateCore);
  double delta = addedPower;
  if (!baseline.poweredOn[c]) {
    delta += leakage_->coreLeakageOn(candidateCore, baseline.temperatures[c]) -
             leakage_->coreLeakageGated();
  }

  out.resize(static_cast<std::size_t>(n));
  addColumnScaled(kernelColumn(candidateCore), delta,
                  baseline.temperatures.data(), out.data(), n);
}

void ThermalPredictor::commitPlacement(Baseline& baseline, int candidateCore,
                                       Watts addedPower) const {
  const BaselineTimer timer;
  const int n = coreCount();
  HAYAT_REQUIRE(candidateCore >= 0 && candidateCore < n,
                "candidate core out of range");
  HAYAT_REQUIRE(addedPower >= 0.0, "negative candidate power");
  HAYAT_REQUIRE(static_cast<int>(baseline.temperatures.size()) == n,
                "baseline size mismatch");
  const auto c = static_cast<std::size_t>(candidateCore);
  HAYAT_REQUIRE(!baseline.poweredOn[c],
                "commitPlacement target core is already powered on");

  // Identical delta derivation and column fold as
  // predictWithCandidateInto (shared addColumnScaled), applied in place.
  const double delta =
      addedPower +
      (leakage_->coreLeakageOn(candidateCore, baseline.temperatures[c]) -
       leakage_->coreLeakageGated());
  addColumnScaled(kernelColumn(candidateCore), delta,
                  baseline.temperatures.data(), baseline.temperatures.data(),
                  n);
  baseline.dynamicPower[c] = addedPower;
  baseline.poweredOn[c] = true;
  baseline.temperatureSum = canonicalSum(baseline.temperatures);
  baseline.temperatureMax = canonicalMax(baseline.temperatures);
  baseline.temperatureMaxIndex = canonicalArgMax(baseline.temperatures);
}

ThermalPredictor::CandidateDecision ThermalPredictor::evaluateCandidate(
    const Baseline& baseline, int candidateCore, Watts addedPower,
    Watts peakPower, Kelvin tsafe) const {
  const int n = coreCount();
  HAYAT_REQUIRE(candidateCore >= 0 && candidateCore < n,
                "candidate core out of range");
  HAYAT_REQUIRE(addedPower >= 0.0, "negative candidate power");
  HAYAT_REQUIRE(peakPower >= 0.0, "negative candidate peak power");
  HAYAT_REQUIRE(static_cast<int>(baseline.temperatures.size()) == n,
                "baseline size mismatch");

  const auto c = static_cast<std::size_t>(candidateCore);
  double jump = 0.0;
  if (!baseline.poweredOn[c]) {
    jump = leakage_->coreLeakageOn(candidateCore, baseline.temperatures[c]) -
           leakage_->coreLeakageGated();
  }
  const double deltaNext = addedPower + jump;
  const double deltaPeak = peakPower + jump;

  const double* base = baseline.temperatures.data();
  const double* col = kernelColumn(candidateCore);

  CandidateDecision d;
  d.sumNext = baseline.temperatureSum + deltaNext * columnSum(candidateCore);
  d.candidateNext = base[c] + col[c] * deltaNext;
  d.deltaNext = deltaNext;

  // The guard is `max(walkMax, 0) >= tsafe`, where walkMax is
  // max_i base[i] + col[i] * deltaPeak; decide it without the walk where
  // a bound is conclusive.  The candidate's own peak temperature is one
  // term of the max (a lower bound — conclusive rejection), and with
  // deltaPeak >= 0 every other term is at most
  // temperatureMax + columnMaxOff * deltaPeak (conclusive admission).
  // Both bounds evaluate the exact same arithmetic the walk would, so the
  // boolean is identical to the full walk's in every case.
  if (tsafe <= 0.0) {
    d.admitted = false;  // the peak is clamped at 0, so 0 >= tsafe
    d.guard = GuardPath::SelfReject;
    return d;
  }
  const double selfPeak = base[c] + col[c] * deltaPeak;
  if (selfPeak >= tsafe) {  // rejected: one term already trips
    d.guard = GuardPath::SelfReject;
    return d;
  }
  const auto hot = static_cast<std::size_t>(baseline.temperatureMaxIndex);
  if (base[hot] + col[hot] * deltaPeak >= tsafe) {  // hot-spot term
    d.guard = GuardPath::HotReject;
    return d;
  }
  if (deltaPeak >= 0.0) {
    const double upper =
        std::max(selfPeak, baseline.temperatureMax +
                               profile_->columnMaxOff[c] * deltaPeak);
    if (upper < tsafe) {
      d.admitted = true;
      d.guard = GuardPath::BoundAdmit;
      return d;
    }
  }
  // Gray zone: the blocked peak walk with a per-block exceedance check
  // (any term at or above tsafe rejects — block order does not change
  // the boolean).
  d.guard = GuardPath::GrayWalk;
  constexpr int kBlock = 32;
  int i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    double m = -1.7976931348623157e308;
    for (int j = i; j < i + kBlock; ++j)
      m = std::max(m, base[j] + col[j] * deltaPeak);
    if (m >= tsafe) return d;  // rejected
  }
  for (; i < n; ++i) {
    if (base[i] + col[i] * deltaPeak >= tsafe) return d;  // rejected
  }
  d.admitted = true;
  return d;
}

double ThermalPredictor::candidateMaxPeakBelow(const Baseline& baseline,
                                               int candidateCore,
                                               double delta,
                                               double bound) const {
  const int n = coreCount();
  HAYAT_REQUIRE(candidateCore >= 0 && candidateCore < n,
                "candidate core out of range");
  HAYAT_REQUIRE(static_cast<int>(baseline.temperatures.size()) == n,
                "baseline size mismatch");

  const auto c = static_cast<std::size_t>(candidateCore);
  const double* base = baseline.temperatures.data();
  const double* col = kernelColumn(candidateCore);
  constexpr double kAbove = std::numeric_limits<double>::infinity();

  // O(1) conclusive rejections first: the clamp floor, the candidate's
  // own term, and the hot-spot term are all lower bounds on the final
  // peak.
  if (0.0 > bound) return kAbove;
  if (base[c] + col[c] * delta > bound) return kAbove;
  const auto hot = static_cast<std::size_t>(baseline.temperatureMaxIndex);
  if (base[hot] + col[hot] * delta > bound) return kAbove;

  // Blocked walk with a per-block exit: a running max only grows, so a
  // prefix above the bound is conclusive, and completing the walk yields
  // the exact clamped peak (the 0 start is the reference's
  // max(walkMax, 0), and max is order-independent).
  constexpr int kBlock = 32;
  double m = 0.0;
  int i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (int j = i; j < i + kBlock; ++j)
      m = std::max(m, base[j] + col[j] * delta);
    if (m > bound) return kAbove;
  }
  for (; i < n; ++i) m = std::max(m, base[i] + col[i] * delta);
  if (m > bound) return kAbove;
  return m;
}

}  // namespace hayat
