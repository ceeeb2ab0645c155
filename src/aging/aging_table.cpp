#include "aging/aging_table.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace hayat {

namespace {

/// Inverse solves (each replays or runs one 60-iteration bisection) —
/// the hottest aging kernel, tracked for the lifetime-breakdown bench.
telemetry::Counter& bisectionsTotal = telemetry::Registry::global().counter(
    "hayat_equivalent_age_bisections_total");

/// Lookups served through the batched/cursor fast path.
telemetry::Counter& batchLookupsTotal =
    telemetry::Registry::global().counter("hayat_aging_batch_lookups_total");

void countBisection() {
  if (telemetry::enabled()) bisectionsTotal.add();
}

void countBatchLookups(std::uint64_t n) {
  if (telemetry::enabled()) batchLookupsTotal.add(n);
}

/// Replays the reference bisection of equivalentAgeScalar on a pinned
/// (T, d) table line: the same boundary clamps, the same midpoint
/// sequence, the same `< target` predicates — only each probe costs an
/// age-axis locate (with cell hint) plus four cached-row reads instead
/// of three full axis searches.  Identical predicates give identical
/// lo/hi narrowing, so the returned age is bitwise equal to the scalar
/// loop's.
Years bisectOnLine(const TrilinearGrid::Line& line, double target,
                   Years maxAge, int& ageHint) {
  if (line.at(0.0, ageHint) >= target) return 0.0;
  if (line.at(maxAge, ageHint) <= target) return maxAge;
  Years lo = 0.0;
  Years hi = maxAge;
  for (int iter = 0; iter < 60; ++iter) {
    const Years mid = 0.5 * (lo + hi);
    // Branchless narrowing (conditional moves, no arithmetic): the
    // probe outcome is a coin flip near convergence, and a mispredicted
    // branch per iteration would dominate the probe itself.  lo/hi take
    // exactly the values the if/else form assigns.
    const bool below = line.at(mid, ageHint) < target;
    lo = below ? mid : lo;
    hi = below ? hi : mid;
  }
  return 0.5 * (lo + hi);
}

/// Age axis with dense sampling at small ages where y^(1/6) is steep.
Axis makeAgeAxis(Years maxAge) {
  std::vector<double> pts = {0.0,  0.05, 0.125, 0.25, 0.5, 1.0, 2.0,
                             3.0,  5.0,  7.5,   10.0, 15.0};
  std::vector<double> axis;
  for (double p : pts)
    if (p < maxAge) axis.push_back(p);
  axis.push_back(maxAge * 0.5 > axis.back() ? maxAge * 0.5 : axis.back() + 1.0);
  axis.push_back(maxAge);
  // Deduplicate / enforce monotonicity defensively.
  std::vector<double> clean;
  for (double p : axis)
    if (clean.empty() || p > clean.back()) clean.push_back(p);
  return Axis(std::move(clean));
}

/// Duty axis with quadratic spacing: d^(1/6) is steep near zero, so a
/// linear grid interpolates poorly there; squares of a uniform grid put
/// the sample density where the curvature is.
Axis makeDutyAxis(int points) {
  HAYAT_REQUIRE(points >= 2, "need >= 2 duty points");
  std::vector<double> pts(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double u = static_cast<double>(i) / (points - 1);
    pts[static_cast<std::size_t>(i)] = u * u;
  }
  pts.back() = 1.0;
  return Axis(std::move(pts));
}

}  // namespace

AgingTable::AgingTable(const NbtiModel& nbti, const CorePathSet& paths,
                       const AgingTableConfig& config)
    : config_(config),
      table_(Axis::linspace(config.temperatureMin, config.temperatureMax,
                            config.temperaturePoints),
             makeDutyAxis(config.dutyPoints),
             makeAgeAxis(config.maxAge)) {
  HAYAT_REQUIRE(config.temperatureMax > config.temperatureMin,
                "empty temperature range");
  HAYAT_REQUIRE(config.maxAge > 0.0, "maxAge must be positive");
  const std::vector<double> values = paths.delayFactorGrid(
      nbti, table_.axis0().points(), table_.axis1().points(),
      table_.axis2().points());
  auto value = values.begin();
  for (int i = 0; i < table_.axis0().size(); ++i)
    for (int j = 0; j < table_.axis1().size(); ++j)
      for (int k = 0; k < table_.axis2().size(); ++k)
        table_.at(i, j, k) = *value++;
  grid_ = TrilinearGrid(table_);
}

double AgingTable::delayFactor(Kelvin temperature, double duty,
                               Years age) const {
  HAYAT_REQUIRE(duty >= 0.0 && duty <= 1.0, "duty cycle must be in [0, 1]");
  HAYAT_REQUIRE(age >= 0.0, "age must be non-negative");
  return table_.interpolate(temperature, duty, age);
}

void AgingTable::delayFactorBatch(const double* temperature,
                                  const double* duty, const double* age,
                                  int n, double* out, Cursor* cursors) const {
  HAYAT_REQUIRE(n >= 0, "negative batch size");
  countBatchLookups(static_cast<std::uint64_t>(n));
  Cursor cold;
  for (int i = 0; i < n; ++i) {
    HAYAT_REQUIRE(duty[i] >= 0.0 && duty[i] <= 1.0,
                  "duty cycle must be in [0, 1]");
    HAYAT_REQUIRE(age[i] >= 0.0, "age must be non-negative");
    if (config_.scalarReference) {
      out[i] = table_.interpolate(temperature[i], duty[i], age[i]);
    } else {
      Cursor& cursor = cursors != nullptr ? cursors[i] : cold;
      out[i] = grid_.interpolate(temperature[i], duty[i], age[i], cursor);
    }
  }
}

Years AgingTable::equivalentAgeScalar(Kelvin temperature, double duty,
                                      double targetDelayFactor) const {
  if (delayFactor(temperature, duty, 0.0) >= targetDelayFactor) return 0.0;
  if (delayFactor(temperature, duty, config_.maxAge) <= targetDelayFactor)
    return config_.maxAge;
  // The delay factor is strictly increasing in age for duty > 0, so
  // bisection converges unconditionally.
  Years lo = 0.0;
  Years hi = config_.maxAge;
  for (int iter = 0; iter < 60; ++iter) {
    const Years mid = 0.5 * (lo + hi);
    if (delayFactor(temperature, duty, mid) < targetDelayFactor)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

Years AgingTable::equivalentAge(Kelvin temperature, double duty,
                                double targetDelayFactor) const {
  Cursor cursor;
  return equivalentAge(temperature, duty, targetDelayFactor, cursor);
}

Years AgingTable::equivalentAge(Kelvin temperature, double duty,
                                double targetDelayFactor,
                                Cursor& cursor) const {
  HAYAT_REQUIRE(duty > 0.0, "equivalent age undefined for zero duty");
  HAYAT_REQUIRE(targetDelayFactor >= 1.0, "delay factor must be >= 1");
  countBisection();
  if (config_.scalarReference)
    return equivalentAgeScalar(temperature, duty, targetDelayFactor);
  // Same failure order as the scalar path (which trips this check inside
  // its first delayFactor probe).
  HAYAT_REQUIRE(duty <= 1.0, "duty cycle must be in [0, 1]");
  countBatchLookups(1);
  const TrilinearGrid::Line line = grid_.line(temperature, duty, cursor);
  int ageHint = cursor.i2;
  const Years age =
      bisectOnLine(line, targetDelayFactor, config_.maxAge, ageHint);
  cursor.i2 = ageHint;
  return age;
}

double AgingTable::advanceDelayFactor(Kelvin temperature, double duty,
                                      Years duration,
                                      double currentDelayFactor,
                                      Cursor& cursor) const {
  HAYAT_REQUIRE(duration >= 0.0, "negative aging duration");
  HAYAT_REQUIRE(duty > 0.0, "equivalent age undefined for zero duty");
  HAYAT_REQUIRE(currentDelayFactor >= 1.0, "delay factor must be >= 1");
  countBisection();
  if (config_.scalarReference) {
    const Years equivalent =
        equivalentAgeScalar(temperature, duty, currentDelayFactor);
    const double next =
        delayFactor(temperature, duty, equivalent + duration);
    // Guard against interpolation wiggle: long-term aging never improves.
    return next > currentDelayFactor ? next : currentDelayFactor;
  }
  HAYAT_REQUIRE(duty <= 1.0, "duty cycle must be in [0, 1]");
  countBatchLookups(1);
  // The inverse solve and the stepped forward lookup share one (T, d)
  // cell setup — the combined kernel the per-epoch advance runs on.
  const TrilinearGrid::Line line = grid_.line(temperature, duty, cursor);
  int ageHint = cursor.i2;
  const Years equivalent =
      bisectOnLine(line, currentDelayFactor, config_.maxAge, ageHint);
  const double next = line.at(equivalent + duration, ageHint);
  cursor.i2 = ageHint;
  return next > currentDelayFactor ? next : currentDelayFactor;
}

void AgingTable::advanceDelayFactorMany(const double* temperature,
                                        const double* duty, Years duration,
                                        const double* current, int n,
                                        double* out, Cursor* cursors) const {
  HAYAT_REQUIRE(n >= 0, "negative batch size");
  HAYAT_REQUIRE(cursors != nullptr, "advanceDelayFactorMany needs cursors");
  if (config_.scalarReference) {
    for (int i = 0; i < n; ++i)
      out[i] = advanceDelayFactor(temperature[i], duty[i], duration,
                                  current[i], cursors[i]);
    return;
  }
  constexpr int kLanes = 4;
  const Years maxAge = config_.maxAge;
  for (int base = 0; base < n; base += kLanes) {
    const int m = std::min(kLanes, n - base);
    TrilinearGrid::Line line[kLanes];
    int hint[kLanes];
    Years lo[kLanes];
    Years hi[kLanes];
    double target[kLanes];
    Years age[kLanes];
    bool bisecting[kLanes];
    // Per-lane setup: the same checks, counters, line pin, and boundary
    // probes advanceDelayFactor performs, in the same per-element order.
    for (int l = 0; l < m; ++l) {
      const int i = base + l;
      HAYAT_REQUIRE(duration >= 0.0, "negative aging duration");
      HAYAT_REQUIRE(duty[i] > 0.0, "equivalent age undefined for zero duty");
      HAYAT_REQUIRE(current[i] >= 1.0, "delay factor must be >= 1");
      countBisection();
      HAYAT_REQUIRE(duty[i] <= 1.0, "duty cycle must be in [0, 1]");
      countBatchLookups(1);
      line[l] = grid_.line(temperature[i], duty[i], cursors[i]);
      hint[l] = cursors[i].i2;
      target[l] = current[i];
      lo[l] = 0.0;
      hi[l] = maxAge;
      bisecting[l] = false;
      if (line[l].at(0.0, hint[l]) >= target[l]) {
        age[l] = 0.0;
      } else if (line[l].at(maxAge, hint[l]) <= target[l]) {
        age[l] = maxAge;
      } else {
        bisecting[l] = true;
      }
    }
    // The interleaved replay: iteration k of every active lane before
    // iteration k+1 of any — lanes touch disjoint state, so each lane's
    // lo/hi narrowing (and thus its result) is the one bisectOnLine
    // produces.
    for (int iter = 0; iter < 60; ++iter) {
      for (int l = 0; l < m; ++l) {
        if (!bisecting[l]) continue;
        const Years mid = 0.5 * (lo[l] + hi[l]);
        // Branchless narrowing — see bisectOnLine.
        const bool below = line[l].at(mid, hint[l]) < target[l];
        lo[l] = below ? mid : lo[l];
        hi[l] = below ? hi[l] : mid;
      }
    }
    for (int l = 0; l < m; ++l) {
      const int i = base + l;
      if (bisecting[l]) age[l] = 0.5 * (lo[l] + hi[l]);
      const double next = line[l].at(age[l] + duration, hint[l]);
      cursors[i].i2 = hint[l];
      out[i] = next > current[i] ? next : current[i];
    }
  }
}

void AgingTable::advanceBatch(const double* temperature, const double* duty,
                              int n, Years duration, double* delayFactor,
                              Cursor* cursors) const {
  HAYAT_REQUIRE(n >= 0, "negative batch size");
  Cursor cold;
  for (int i = 0; i < n; ++i) {
    HAYAT_REQUIRE(duration >= 0.0, "negative aging duration");
    HAYAT_REQUIRE(duty[i] >= 0.0 && duty[i] <= 1.0,
                  "duty cycle must be in [0, 1]");
    if (duration == 0.0 || duty[i] < kAgingDutyEpsilon) continue;
    Cursor& cursor = cursors != nullptr ? cursors[i] : cold;
    delayFactor[i] = advanceDelayFactor(temperature[i], duty[i], duration,
                                        delayFactor[i], cursor);
  }
}

}  // namespace hayat
