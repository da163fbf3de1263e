#include "core/clump.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace lion {

namespace {
/// Edge-weight threshold α: neighbors whose effective co-access weight
/// exceeds it join the seed's clump.
constexpr double kAlpha = 1.0;
/// Multiplier applied to edges whose endpoints' primaries currently live on
/// different nodes (the paper's e_c > e_s priority: cross-node edges matter
/// more because they generate distributed transactions).
constexpr double kCrossNodeMultiplier = 4.0;
/// Relative noise filter: edges whose *raw* weight is at most this share of
/// the mean raw edge weight are ignored, so incidental co-access (e.g.
/// occasional random remote accesses) never glues unrelated partitions into
/// one giant clump, while genuinely co-accessed pairs stay clustered whether
/// or not they are already co-located (placement stability).
constexpr double kAlphaRelative = 0.5;
}  // namespace

std::vector<Clump> ClumpGenerator::Generate(const HeatGraph& graph,
                                            const RouterTable& table) const {
  std::vector<Clump> clumps;
  std::unordered_set<PartitionId> used;
  std::vector<PartitionId> by_heat = graph.VerticesByHeat();
  double raw_floor = kAlphaRelative * graph.MeanEdgeWeight();

  for (PartitionId seed : by_heat) {
    if (used.count(seed)) continue;
    Clump clump;
    std::deque<PartitionId> frontier;
    frontier.push_back(seed);
    used.insert(seed);

    while (!frontier.empty()) {
      PartitionId v = frontier.front();
      frontier.pop_front();
      clump.pids.push_back(v);
      clump.weight += graph.VertexWeight(v);

      for (const auto& [nbr, raw_w] : graph.Neighbors(v)) {
        if (used.count(nbr)) continue;
        // Below-average co-access is placement noise, not structure.
        if (raw_w <= raw_floor) continue;
        // Edges across current node boundaries get boosted: co-access that
        // is already local matters less than co-access that currently
        // requires a distributed transaction.
        double eff = raw_w;
        if (table.PrimaryOf(v) != table.PrimaryOf(nbr)) {
          eff *= kCrossNodeMultiplier;
        }
        if (eff > kAlpha) {
          used.insert(nbr);
          frontier.push_back(nbr);
        }
      }
    }
    std::sort(clump.pids.begin(), clump.pids.end());
    clumps.push_back(std::move(clump));
  }
  return clumps;
}

}  // namespace lion
