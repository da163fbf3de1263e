// Clump generation: clustering co-accessed partitions (Sec. IV-A).
#pragma once

#include <vector>

#include "common/types.h"
#include "core/heat_graph.h"
#include "replication/router_table.h"

namespace lion {

/// A set of co-accessed partitions that should be co-located on one node.
struct Clump {
  std::vector<PartitionId> pids;  // c.pids
  double weight = 0.0;            // c.w — summed vertex weights
  NodeId dst = kInvalidNode;      // c.n — destination chosen by Algorithm 1
};

/// Expands clumps from the hottest unused vertex over edges whose effective
/// weight exceeds the threshold α, until all vertices are assigned.
/// Partitions with weak or independent access become singleton clumps. The
/// thresholds are constants in clump.cc: α = 1, cross-node edges weigh 4x,
/// and edges whose raw weight is at most half the mean raw edge weight are
/// ignored.
class ClumpGenerator {
 public:
  std::vector<Clump> Generate(const HeatGraph& graph,
                              const RouterTable& table) const;
};

}  // namespace lion
