#include "workload/ycsb.h"

#include "harness/registry.h"

namespace lion {

namespace {
/// Per-operation probability of being a write.
constexpr double kWriteRatio = 0.1;
/// The node whose (initial) partitions form the hotspot.
constexpr NodeId kHotNode = 0;
}  // namespace

YcsbWorkload::YcsbWorkload(const ClusterConfig& cluster, const YcsbConfig& config)
    : num_nodes_(cluster.num_nodes),
      total_partitions_(cluster.total_partitions()),
      records_per_partition_(cluster.records_per_partition),
      config_(config) {}

PartitionId YcsbWorkload::PickHomePartition(Rng* rng) const {
  int partitions_per_node = total_partitions_ / num_nodes_;
  PartitionId base;
  if (config_.skew_factor > 0.0 && rng->Bernoulli(config_.skew_factor)) {
    // Hot: one of the partitions initially placed on the hot node.
    int idx = static_cast<int>(rng->Uniform(partitions_per_node));
    base = kHotNode + idx * num_nodes_;
  } else {
    base = static_cast<PartitionId>(rng->Uniform(total_partitions_));
  }
  return base;  // offset applies after pairing (see Next)
}

PartitionId YcsbWorkload::PickRemotePartition(PartitionId home, Rng* rng) const {
  if (config_.cross_pattern == CrossPattern::kPaired) {
    // Disjoint stable pairs 2i <-> 2i+1 in the pre-offset space.
    PartitionId partner = home ^ 1;
    if (partner >= total_partitions_) partner = home - 1;
    if (partner != home) return partner;
  }
  // A partition whose initial node differs from home's initial node.
  int home_node = home % num_nodes_;
  for (int attempt = 0; attempt < 64; ++attempt) {
    PartitionId p = static_cast<PartitionId>(rng->Uniform(total_partitions_));
    if (p % num_nodes_ != home_node) return p;
  }
  return (home + 1) % total_partitions_;  // single-node clusters
}

TxnPtr YcsbWorkload::Next(TxnId id, SimTime now, Rng* rng) {
  auto txn = std::make_unique<Transaction>(id, now);
  PartitionId home = PickHomePartition(rng);
  bool cross = config_.cross_ratio > 0.0 && rng->Bernoulli(config_.cross_ratio);
  PartitionId second = cross ? PickRemotePartition(home, rng) : home;
  // The offset rotates the whole partition space (dynamic hotspot shifts).
  home = (home + config_.partition_offset) % total_partitions_;
  second = (second + config_.partition_offset) % total_partitions_;

  int n = config_.ops_per_txn;
  txn->ops().reserve(n);
  for (int i = 0; i < n; ++i) {
    Operation op;
    // Cross-partition transactions split their accesses across the two
    // involved partitions (first half home, second half remote).
    op.partition = (cross && i >= n / 2) ? second : home;
    op.key = rng->Uniform(records_per_partition_);
    // Avoid intra-txn duplicate keys on the same partition (re-draw on
    // collision, bounded: a nudge can itself collide in a small partition).
    for (int guard = 0; guard < 64; ++guard) {
      bool dup = false;
      for (const auto& prev : txn->ops()) {
        if (prev.partition == op.partition && prev.key == op.key) {
          dup = true;
          break;
        }
      }
      if (!dup) break;
      op.key = (op.key + 1 + rng->Uniform(16)) % records_per_partition_;
    }
    if (rng->Bernoulli(kWriteRatio)) {
      op.type = OpType::kWrite;
      // Writes carry no value; this discarded draw keeps the random stream
      // that every fixed-seed digest and figure was recorded on.
      rng->Next64();
    } else {
      op.type = OpType::kRead;
    }
    txn->ops().push_back(op);
  }
  return txn;
}


namespace {
const WorkloadRegistrar kRegisterYcsb(
    "ycsb", [](const WorkloadContext& ctx) -> std::unique_ptr<WorkloadGenerator> {
      return std::make_unique<YcsbWorkload>(ctx.config.cluster, ctx.config.ycsb);
    });
}  // namespace

}  // namespace lion
