// Schism-style replica-blind graph repartitioner (ablation baseline).
#pragma once

#include <vector>

#include "core/clump.h"
#include "core/heat_graph.h"
#include "replication/router_table.h"

namespace lion {

/// The partitioning strategy of Schism (Curino et al., VLDB'10), used by the
/// Lion(S)/Lion(SW) ablation variants: a balanced min-cut assignment of
/// partitions to nodes over the co-access graph. Unlike Lion's replica
/// rearrangement it is blind to secondary replica placement, so realizing
/// its plans requires full primary migrations ("unnecessary migrations",
/// Sec. VI-B).
class SchismPartitioner {
 public:
  /// Assigns every vertex of `graph` to a node: greedy heaviest-first
  /// placement maximizing co-access affinity under a per-node cap of
  /// (1 + ε) times the mean partition count (ε = PlanGeneratorConfig's),
  /// followed by a Kernighan-Lin-style refinement pass that relocates
  /// vertices whose cut gain is positive. Returns one clump per node.
  std::vector<Clump> Partition(const HeatGraph& graph,
                               const RouterTable& table) const;
};

}  // namespace lion
