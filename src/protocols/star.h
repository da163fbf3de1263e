// Star baseline: asymmetric full replication with phase switching.
#pragma once

#include "protocols/batch_protocol.h"

namespace lion {

/// Star keeps one node with replicas of every partition. Batches are split
/// into a partition phase (single-home transactions run on their home
/// nodes) and a single-master phase (every cross-partition transaction runs
/// on the super node as a single-node transaction, no 2PC). The super node
/// saturates as the cross-partition ratio grows — the bottleneck the paper
/// attributes to full-replication designs.
class StarProtocol : public BatchProtocol {
 public:
  /// The node hosting the full replica set ("super node").
  static constexpr NodeId kSuperNode = 0;

  using BatchProtocol::BatchProtocol;

  std::string name() const override { return "Star"; }
  void Start() override;

  uint64_t super_node_txns() const { return super_node_txns_; }

 protected:
  void ExecuteBatch(std::vector<Item> batch) override;

 private:
  /// Runs one cross-partition transaction entirely on the super node.
  void RunOnSuperNode(Item item);

  uint64_t super_node_txns_ = 0;
};

}  // namespace lion
