#include "failure/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "telemetry/metrics.hpp"

namespace hayat {

namespace {

telemetry::Counter& samplesTotal =
    telemetry::Registry::global().counter("hayat_failure_samples_total");
telemetry::Counter& emKillsTotal =
    telemetry::Registry::global().counter("hayat_failure_em_kills_total");
telemetry::Counter& tddbKillsTotal =
    telemetry::Registry::global().counter("hayat_failure_tddb_kills_total");

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void printDouble(std::ostream& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

}  // namespace

std::uint64_t counterU64(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) {
  // Feed each coordinate through one splitmix64 round so nearby counters
  // land far apart; the chain is a pure function of (seed, a, b, c).
  std::uint64_t x = splitmix64(seed);
  x = splitmix64(x ^ a);
  x = splitmix64(x ^ b);
  x = splitmix64(x ^ c);
  return x;
}

double counterUniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c) {
  // Top 53 bits -> the full double mantissa, uniform in [0, 1).
  return static_cast<double>(counterU64(seed, a, b, c) >> 11) * 0x1.0p-53;
}

FailureMonteCarlo::FailureMonteCarlo(FailureConfig config, FailureGraph graph)
    : config_(config),
      graph_(std::move(graph)),
      em_(config.em),
      tddb_(config.tddb) {
  HAYAT_REQUIRE(config.samples >= 0, "negative Monte Carlo sample count");
  HAYAT_REQUIRE(config.weibullShape > 0.0, "Weibull shape must be positive");
  HAYAT_REQUIRE(graph_.unitCount() >= 1, "failure graph has no units");
}

Years FailureMonteCarlo::sampleMechanismLifetime(const UnitTrajectory& unit,
                                                 Years epochLength, int sample,
                                                 int unitIndex,
                                                 bool tddb) const {
  HAYAT_REQUIRE(unit.temperature.size() == unit.stress.size(),
                "trajectory temperature/stress length mismatch");
  const double u =
      counterUniform(config_.seed, static_cast<std::uint64_t>(sample),
                     static_cast<std::uint64_t>(unitIndex), tddb ? 1 : 0);
  const double threshold = weibullMeanOneQuantile(u, config_.weibullShape);
  std::vector<double> rates(unit.temperature.size());
  for (std::size_t e = 0; e < rates.size(); ++e)
    rates[e] = tddb ? tddb_.damageRate(unit.temperature[e], unit.stress[e])
                    : em_.damageRate(unit.temperature[e], unit.stress[e]);
  return damageCrossingTime(rates, epochLength, threshold);
}

LifetimeDistribution FailureMonteCarlo::run(
    const std::vector<UnitTrajectory>& units, Years epochLength) const {
  HAYAT_REQUIRE(static_cast<int>(units.size()) == graph_.unitCount(),
                "one trajectory per graph unit required");
  HAYAT_REQUIRE(epochLength > 0.0, "epoch length must be positive");

  // The damage-rate trajectories are sample-independent: precompute the
  // per-unit cumulative damage walk once, so each sample only pays a
  // binary search per (unit, mechanism).
  struct Schedule {
    std::vector<double> cumulative;  // damage at the END of each epoch
    std::vector<double> rates;
    double meanRate = 0.0;
    Years horizon = 0.0;

    Years crossingTime(double threshold, Years epoch) const {
      if (threshold <= 0.0) return 0.0;
      const auto it = std::lower_bound(cumulative.begin(), cumulative.end(),
                                       threshold);
      if (it != cumulative.end()) {
        const std::size_t e =
            static_cast<std::size_t>(it - cumulative.begin());
        const double before = e == 0 ? 0.0 : cumulative[e - 1];
        // Same arithmetic as damageCrossingTime's in-epoch interpolation,
        // so the two agree bitwise (pinned by the property tests).
        return static_cast<double>(e) * epoch +
               (threshold - before) / rates[e];
      }
      const double damage = cumulative.empty() ? 0.0 : cumulative.back();
      if (damage <= 0.0 || horizon <= 0.0) return kUnboundedLifetime;
      return horizon + (threshold - damage) / meanRate;
    }
  };

  const std::size_t unitCount = units.size();
  std::vector<Schedule> emSchedules(unitCount);
  std::vector<Schedule> tddbSchedules(unitCount);
  for (std::size_t u = 0; u < unitCount; ++u) {
    HAYAT_REQUIRE(units[u].temperature.size() == units[u].stress.size(),
                  "trajectory temperature/stress length mismatch");
    const std::size_t epochs = units[u].temperature.size();
    for (const bool tddb : {false, true}) {
      Schedule& s = tddb ? tddbSchedules[u] : emSchedules[u];
      s.rates.resize(epochs);
      s.cumulative.resize(epochs);
      double damage = 0.0;
      for (std::size_t e = 0; e < epochs; ++e) {
        s.rates[e] = tddb ? tddb_.damageRate(units[u].temperature[e],
                                             units[u].stress[e])
                          : em_.damageRate(units[u].temperature[e],
                                           units[u].stress[e]);
        damage += s.rates[e] * epochLength;
        s.cumulative[e] = damage;
      }
      s.horizon = static_cast<double>(epochs) * epochLength;
      s.meanRate = s.horizon > 0.0 ? damage / s.horizon : 0.0;
    }
  }

  LifetimeDistribution out;
  out.systemLifetimes.resize(static_cast<std::size_t>(config_.samples));
  out.units.resize(unitCount);
  for (std::size_t u = 0; u < unitCount; ++u) {
    out.units[u].name = graph_.unit(static_cast<int>(u)).name;
    out.units[u].kind = graph_.unit(static_cast<int>(u)).kind;
  }

  std::vector<Years> lifetimes(unitCount);
  std::vector<bool> diedOfTddb(unitCount);
  for (int s = 0; s < config_.samples; ++s) {
    for (std::size_t u = 0; u < unitCount; ++u) {
      Years best = kUnboundedLifetime;
      bool byTddb = false;
      for (const bool tddb : {false, true}) {
        const double draw = counterUniform(
            config_.seed, static_cast<std::uint64_t>(s),
            static_cast<std::uint64_t>(u), tddb ? 1 : 0);
        const double threshold =
            weibullMeanOneQuantile(draw, config_.weibullShape);
        const Schedule& sched = tddb ? tddbSchedules[u] : emSchedules[u];
        const Years t = sched.crossingTime(threshold, epochLength);
        if (t < best) {
          best = t;
          byTddb = tddb;
        }
      }
      lifetimes[u] = best;
      diedOfTddb[u] = byTddb;
    }
    const Years death = graph_.systemLifetime(lifetimes);
    out.systemLifetimes[static_cast<std::size_t>(s)] = death;
    const int killer = graph_.killerUnit(lifetimes);
    if (killer >= 0) {
      out.units[static_cast<std::size_t>(killer)].kills += 1;
      if (diedOfTddb[static_cast<std::size_t>(killer)])
        out.tddbKills += 1;
      else
        out.emKills += 1;
    }
    if (!std::isinf(death))
      for (std::size_t u = 0; u < unitCount; ++u)
        if (lifetimes[u] <= death) out.units[u].deaths += 1;
  }

  if (telemetry::enabled()) {
    samplesTotal.add(static_cast<std::uint64_t>(config_.samples));
    emKillsTotal.add(static_cast<std::uint64_t>(out.emKills));
    tddbKillsTotal.add(static_cast<std::uint64_t>(out.tddbKills));
    // Named by the failure graph, so looked up here: the one metric not
    // bound at static initialisation.  A plain lookup is fork-safe (the
    // registry mutex is held across fork()).
    for (const UnitFailureStats& unit : out.units) {
      auto& kills = telemetry::Registry::global().counter(
          "hayat_failure_unit_kills_total_" + unit.name);
      kills.add(static_cast<std::uint64_t>(unit.kills));
    }
  }
  return out;
}

Years LifetimeDistribution::percentile(double p) const {
  return hayat::percentile(systemLifetimes, p);
}

double LifetimeDistribution::survivalAt(Years t) const {
  HAYAT_REQUIRE(!systemLifetimes.empty(), "survival of empty distribution");
  std::size_t alive = 0;
  for (const Years life : systemLifetimes)
    if (life > t) ++alive;
  return static_cast<double>(alive) /
         static_cast<double>(systemLifetimes.size());
}

Years LifetimeDistribution::meanLifetime() const {
  HAYAT_REQUIRE(!systemLifetimes.empty(), "mean of empty distribution");
  double sum = 0.0;
  for (const Years life : systemLifetimes) sum += life;
  return sum / static_cast<double>(systemLifetimes.size());
}

void writeDistribution(std::ostream& out, const LifetimeDistribution& d) {
  out << "# hayat-lifetime-distribution v1\n";
  out << "samples," << d.systemLifetimes.size() << "\n";
  for (const double p : {5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0}) {
    out << "p," << static_cast<int>(p) << ",";
    printDouble(out, d.percentile(p));
    out << "\n";
  }
  out << "mean,";
  printDouble(out, d.meanLifetime());
  out << "\n";
  out << "em_kills," << d.emKills << "\n";
  out << "tddb_kills," << d.tddbKills << "\n";
  for (const UnitFailureStats& unit : d.units)
    out << "unit," << unit.name << "," << unit.kills << "," << unit.deaths
        << "\n";
  for (const Years life : d.systemLifetimes) {
    out << "sample,";
    printDouble(out, life);
    out << "\n";
  }
}

}  // namespace hayat
