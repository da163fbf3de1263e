// Global replica placement map plus access-frequency tracking.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "replication/replica_group.h"

namespace lion {

/// The "global router table" of Sec. V: maps every partition to the node
/// hosting its primary replica and the nodes hosting secondaries.
///
/// One authoritative instance is shared by all simulated nodes; placement
/// changes propagate through plan-application and remaster control messages,
/// whose network delays are modeled where the changes are made.
///
/// The table also tracks per-partition access frequency (the paper's f(v, n)
/// for the replica currently serving, i.e. the primary), used by the cost
/// model's remastering-disruption term and by replica eviction.
class RouterTable {
 public:
  RouterTable(int num_nodes, int num_partitions);

  int num_nodes() const { return num_nodes_; }
  int num_partitions() const { return static_cast<int>(groups_.size()); }

  /// Installs the default round-robin placement: partition p's primary on
  /// node p % n, with `replicas - 1` secondaries on the following nodes.
  void InitRoundRobin(int replicas);

  const ReplicaGroup& group(PartitionId pid) const { return groups_[pid]; }
  ReplicaGroup* mutable_group(PartitionId pid) { return &groups_[pid]; }

  NodeId PrimaryOf(PartitionId pid) const { return groups_[pid].primary(); }
  bool HasReplica(NodeId node, PartitionId pid) const {
    return groups_[pid].HasReplica(node);
  }
  bool HasSecondary(NodeId node, PartitionId pid) const {
    return groups_[pid].HasSecondary(node);
  }

  /// The coordinator rule of every primary-affinity protocol: the node
  /// hosting the most primaries of `parts` (a transaction's Partitions();
  /// ties: lowest id). If `hosted` is non-null it receives that node's
  /// count, so `*hosted == parts.size()` means one node holds them all.
  NodeId MostPrimariesNode(const std::vector<PartitionId>& parts,
                           int* hosted = nullptr) const;

  /// Bumps the access counter of `pid` (called once per touching txn).
  void RecordAccess(PartitionId pid);

  /// Normalized access frequency f(v, primary) in [0, 1]: the partition's
  /// recent access count divided by the hottest partition's count.
  double NormalizedFrequency(PartitionId pid) const;

  /// Raw (decayed) access count of `pid`.
  double RawFrequency(PartitionId pid) const { return freq_[pid]; }

  /// Exponentially decays all access counters (called once per plan period
  /// so the frequencies track the recent workload).
  void DecayFrequencies(double keep_fraction);

  /// Partitions whose primary is on `node`.
  std::vector<PartitionId> PrimariesOn(NodeId node) const;

  /// Total live replica count across all partitions (invariant checks).
  int TotalLiveReplicas() const;

  /// Node liveness (maintained by the failure injector). Placement
  /// machinery — plan generation, routing, replica provisioning,
  /// remastering — never targets a down node.
  bool IsNodeUp(NodeId node) const { return node_up_[node]; }
  void SetNodeUp(NodeId node, bool up) { node_up_[node] = up; }

 private:
  int num_nodes_;
  std::vector<bool> node_up_;
  std::vector<ReplicaGroup> groups_;
  std::vector<double> freq_;
  double max_freq_;
};

}  // namespace lion
