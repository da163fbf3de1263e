// Per-node adaptor applying replica-layout plan entries (Sec. III, V).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "core/plan.h"
#include "replication/cluster.h"

namespace lion {

/// The adaptor component running on each executor node. It receives plan
/// entries from the planner and adjusts the local replica layout by invoking
/// the replica-manipulation machinery: AddRepReqHandler (background copy,
/// which evicts at the max-replica limit) and remastering.
class Adaptor {
 public:
  Adaptor(Cluster* cluster, NodeId node) : cluster_(cluster), node_(node) {}

  NodeId node() const { return node_; }

  /// Applies one plan entry addressed to this node.
  void Apply(const PlanEntry& entry);

  uint64_t adds_completed() const { return adds_completed_; }
  uint64_t moves_started() const { return moves_started_; }

 private:
  Cluster* cluster_;
  NodeId node_;
  uint64_t adds_completed_ = 0;
  uint64_t moves_started_ = 0;
};

}  // namespace lion
