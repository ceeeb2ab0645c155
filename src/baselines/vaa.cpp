#include "baselines/vaa.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat {

namespace {

telemetry::Counter& decisionsTotal =
    telemetry::Registry::global().counter("hayat_policy_vaa_decisions_total");

/// Availability score of a first-node candidate: number of idle cores
/// within the Manhattan radius (Fattah's square-region availability).
int availabilityScore(const GridShape& grid, const std::vector<bool>& busy,
                      int core, int radius) {
  const TilePos p = grid.posOf(core);
  int score = 0;
  for (int dr = -radius; dr <= radius; ++dr) {
    for (int dc = -radius; dc <= radius; ++dc) {
      const TilePos q{p.row + dr, p.col + dc};
      if (!grid.contains(q)) continue;
      if (!busy[static_cast<std::size_t>(grid.indexOf(q))]) ++score;
    }
  }
  return score;
}

}  // namespace

VaaPolicy::VaaPolicy(VaaConfig config) : config_(config), rng_(config.seed) {
  HAYAT_REQUIRE(config.availabilityRadius >= 1,
                "availability radius must be >= 1");
}

void VaaPolicy::placeOneApplication(const PolicyContext& context,
                                    Mapping& mapping, std::vector<bool>& busy,
                                    int appIndex, int k) {
  const Chip& chip = *context.chip;
  const GridShape& grid = chip.grid();
  const int n = chip.coreCount();
  const Application& app =
      context.mix->applications[static_cast<std::size_t>(appIndex)];
  HAYAT_REQUIRE(k >= app.minThreads() && k <= app.maxThreads(),
                "parallelism outside the malleable range");

  // --- First-node selection by hill climbing on availability. ---
  // Random start on an idle core, then greedily move to the 4-neighbour
  // with the best score until a local maximum.
  int node = -1;
  for (int attempt = 0; attempt < 4 * n && node < 0; ++attempt) {
    const int c = rng_.uniformInt(n);
    if (!busy[static_cast<std::size_t>(c)]) node = c;
  }
  if (node < 0) {
    for (int c = 0; c < n && node < 0; ++c)
      if (!busy[static_cast<std::size_t>(c)]) node = c;
  }
  HAYAT_REQUIRE(node >= 0, "no idle core left for application placement");
  bool improved = true;
  while (improved) {
    improved = false;
    int bestScore =
        availabilityScore(grid, busy, node, config_.availabilityRadius);
    for (int nb : grid.neighbors4(node)) {
      if (busy[static_cast<std::size_t>(nb)]) continue;
      const int score =
          availabilityScore(grid, busy, nb, config_.availabilityRadius);
      if (score > bestScore) {
        bestScore = score;
        node = nb;
        improved = true;
      }
    }
  }

  // --- Contiguous region growth (BFS) from the first node. ---
  std::vector<int> region;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<int> frontier{node};
  seen[static_cast<std::size_t>(node)] = true;
  while (!frontier.empty() && static_cast<int>(region.size()) < k) {
    // Closest-to-node first keeps the region compact.
    std::sort(frontier.begin(), frontier.end(), [&](int a, int b) {
      return grid.manhattan(a, node) < grid.manhattan(b, node);
    });
    const int c = frontier.front();
    frontier.erase(frontier.begin());
    if (!busy[static_cast<std::size_t>(c)]) region.push_back(c);
    for (int nb : grid.neighbors4(c)) {
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = true;
        frontier.push_back(nb);
      }
    }
  }
  // Fragmented chip: fall back to nearest idle cores anywhere.
  if (static_cast<int>(region.size()) < k) {
    std::vector<int> rest;
    for (int c = 0; c < n; ++c) {
      if (busy[static_cast<std::size_t>(c)]) continue;
      if (std::find(region.begin(), region.end(), c) != region.end())
        continue;
      rest.push_back(c);
    }
    std::sort(rest.begin(), rest.end(), [&](int a, int b) {
      return grid.manhattan(a, node) < grid.manhattan(b, node);
    });
    for (int c : rest) {
      if (static_cast<int>(region.size()) >= k) break;
      region.push_back(c);
    }
  }
  HAYAT_REQUIRE(static_cast<int>(region.size()) == k,
                "insufficient idle cores for the workload mix");

  // --- Aging/variability-aware thread-to-core matching. ---
  // Within the region, the most demanding threads take the fastest
  // (current, aged) cores — maximum-throughput matching that always
  // meets f_min when the region can.
  std::sort(region.begin(), region.end(), [&](int a, int b) {
    return context.observedFmax(a) > context.observedFmax(b);
  });
  std::vector<int> threadOrder(static_cast<std::size_t>(k));
  for (int t = 0; t < k; ++t) threadOrder[static_cast<std::size_t>(t)] = t;
  std::sort(threadOrder.begin(), threadOrder.end(), [&](int a, int b) {
    return app.minFrequencyAt(a, k) > app.minFrequencyAt(b, k);
  });
  for (int idx = 0; idx < k; ++idx) {
    const int t = threadOrder[static_cast<std::size_t>(idx)];
    const int core = region[static_cast<std::size_t>(idx)];
    const Hertz required = app.minFrequencyAt(t, k);
    // Threads "only run at their required frequency and not faster";
    // if the aged core cannot reach f_min the thread runs at the core's
    // limit (a throughput violation the DTM statistics expose).
    const Hertz freq = operatingFrequency(context, core, required);
    mapping.assign(ThreadRef{appIndex, t}, core, freq, required);
    busy[static_cast<std::size_t>(core)] = true;
  }
}

Mapping VaaPolicy::map(const PolicyContext& context) {
  const telemetry::Span mapSpan("policy.vaa.map");
  if (telemetry::enabled()) decisionsTotal.add();
  HAYAT_REQUIRE(context.chip && context.mix, "incomplete policy context");
  const Chip& chip = *context.chip;
  const int n = chip.coreCount();

  const int maxOn = std::max(
      1, static_cast<int>(n * (1.0 - context.minDarkFraction) + 1e-9));
  const std::vector<int> parallelism =
      chooseParallelism(*context.mix, maxOn);

  Mapping mapping(n);
  std::vector<bool> busy(static_cast<std::size_t>(n), false);

  // Applications with more threads are placed first (they need the
  // largest contiguous regions) — SHiC's ordering.
  std::vector<int> appOrder(context.mix->applications.size());
  for (std::size_t j = 0; j < appOrder.size(); ++j)
    appOrder[j] = static_cast<int>(j);
  std::sort(appOrder.begin(), appOrder.end(), [&](int a, int b) {
    return parallelism[static_cast<std::size_t>(a)] >
           parallelism[static_cast<std::size_t>(b)];
  });

  for (int j : appOrder)
    placeOneApplication(context, mapping, busy, j,
                        parallelism[static_cast<std::size_t>(j)]);
  return mapping;
}

Mapping VaaPolicy::placeApplication(const PolicyContext& context,
                                    const Mapping& existing, int appIndex,
                                    int activeThreads) {
  HAYAT_REQUIRE(context.chip && context.mix, "incomplete policy context");
  HAYAT_REQUIRE(
      appIndex >= 0 &&
          appIndex < static_cast<int>(context.mix->applications.size()),
      "application index out of range");
  const Application& app =
      context.mix->applications[static_cast<std::size_t>(appIndex)];
  const int k = activeThreads > 0 ? activeThreads : app.maxThreads();

  const int n = context.chip->coreCount();
  const int maxOn = std::max(
      1, static_cast<int>(n * (1.0 - context.minDarkFraction) + 1e-9));
  HAYAT_REQUIRE(existing.assignedCount() + k <= maxOn,
                "arriving application would violate the dark-silicon budget");

  Mapping mapping = existing;
  std::vector<bool> busy(static_cast<std::size_t>(n), false);
  for (int c = 0; c < n; ++c)
    busy[static_cast<std::size_t>(c)] = mapping.coreBusy(c);
  placeOneApplication(context, mapping, busy, appIndex, k);
  return mapping;
}

}  // namespace hayat
