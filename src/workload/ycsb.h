// YCSB-style transactional workload (Sec. VI-A1).
#pragma once

#include "replication/cluster_config.h"
#include "workload/workload.h"

namespace lion {

/// YCSB parameters. The paper's skew_factor controls how often a
/// transaction's home partition falls inside the hot node's partition set
/// (0.8 => 80% of transactions target one node); cross-partition
/// transactions always touch exactly two partitions, the second residing on
/// a different (initial-placement) node.
/// How cross-partition transactions choose their second partition.
enum class CrossPattern {
  /// Stable disjoint pairing: partition 2i co-accesses partition 2i+1
  /// (after offset rotation). Under round-robin placement the pair spans
  /// two nodes, so it is distributed until a protocol co-locates it. This
  /// mirrors the structured co-access the paper's workloads exhibit
  /// (fixed partition-ID intervals per period, customer/warehouse affinity).
  kPaired,
  /// Fully random second partition on another node (no stable structure).
  kRandomNode,
};

struct YcsbConfig {
  int ops_per_txn = 10;
  CrossPattern cross_pattern = CrossPattern::kPaired;
  /// Fraction of transactions accessing two partitions on different nodes.
  double cross_ratio = 0.0;
  /// Fraction of transactions whose home partition is on the hot node.
  double skew_factor = 0.0;
  /// Rotates the partition space: partition p behaves as (p + offset) mod m.
  /// Dynamic scenarios shift this to move hotspots (Sec. VI-C2).
  int partition_offset = 0;
};

/// Generates YCSB transactions over the cluster's partition space. The
/// "home node" of a partition is its initial round-robin node (p mod n), so
/// workload skew is independent of any placement changes protocols make.
class YcsbWorkload : public WorkloadGenerator {
 public:
  YcsbWorkload(const ClusterConfig& cluster, const YcsbConfig& config);

  std::string name() const override { return "ycsb"; }
  TxnPtr Next(TxnId id, SimTime now, Rng* rng) override;

 private:
  PartitionId PickHomePartition(Rng* rng) const;
  PartitionId PickRemotePartition(PartitionId home, Rng* rng) const;

  int num_nodes_;
  int total_partitions_;
  uint64_t records_per_partition_;
  YcsbConfig config_;
};

}  // namespace lion
