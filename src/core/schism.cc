#include "core/schism.h"

#include <algorithm>
#include <unordered_map>

#include "core/plan_generator.h"

namespace lion {

std::vector<Clump> SchismPartitioner::Partition(const HeatGraph& graph,
                                                const RouterTable& table) const {
  int n = table.num_nodes();
  std::vector<PartitionId> order = graph.VerticesByHeat();
  // Schism balances data volume; partitions are equal-sized here, so the
  // per-node capacity is a partition count.
  double cap = static_cast<double>(table.num_partitions()) / std::max(1, n) *
               (1.0 + PlanGeneratorConfig::epsilon);

  std::unordered_map<PartitionId, NodeId> assign;
  std::vector<int> count(n, 0);

  auto affinity = [&](PartitionId v, NodeId node) {
    double a = 0.0;
    for (const auto& [nbr, w] : graph.Neighbors(v)) {
      auto it = assign.find(nbr);
      if (it != assign.end() && it->second == node) a += w;
    }
    return a;
  };

  // Greedy heaviest-first placement; fall back to the emptiest node when
  // every node is at capacity.
  for (PartitionId v : order) {
    NodeId best = kInvalidNode;
    double best_score = -1e300;
    for (NodeId node = 0; node < n; ++node) {
      if (count[node] + 1 > cap && count[node] > 0) continue;
      double score = affinity(v, node) - 1e-6 * count[node];
      if (score > best_score) {
        best_score = score;
        best = node;
      }
    }
    if (best == kInvalidNode) {
      best = 0;
      for (NodeId node = 1; node < n; ++node)
        if (count[node] < count[best]) best = node;
    }
    assign[v] = best;
    count[best]++;
  }

  // One KL-style refinement sweep: move vertices with positive cut gain.
  for (PartitionId v : order) {
    NodeId cur = assign[v];
    double cur_aff = affinity(v, cur);
    for (NodeId node = 0; node < n; ++node) {
      if (node == cur) continue;
      if (count[node] + 1 > cap) continue;
      if (affinity(v, node) > cur_aff) {
        count[cur]--;
        count[node]++;
        assign[v] = node;
        cur = node;
        cur_aff = affinity(v, cur);
      }
    }
  }

  std::vector<Clump> clumps(n);
  for (NodeId node = 0; node < n; ++node) clumps[node].dst = node;
  for (const auto& [v, node] : assign) {
    clumps[node].pids.push_back(v);
    clumps[node].weight += graph.VertexWeight(v);
  }
  for (auto& c : clumps) std::sort(c.pids.begin(), c.pids.end());
  return clumps;
}

}  // namespace lion
