#include "protocols/star.h"

#include "txn/occ.h"

#include "harness/registry.h"

namespace lion {

namespace {
/// Cost of one partition-phase <-> single-master-phase switch per epoch.
constexpr SimTime kPhaseSwitchDelay = 300 * kMicrosecond;
}  // namespace

void StarProtocol::Start() {
  // Deployment assumption of Star: the super node is provisioned with a
  // replica of every partition up front (asymmetric replication).
  for (PartitionId pid = 0; pid < cluster_->num_partitions(); ++pid) {
    ReplicaGroup* g = cluster_->router().mutable_group(pid);
    if (!g->HasReplica(kSuperNode)) {
      g->AddSecondary(kSuperNode, g->primary_lsn());
    }
  }
  BatchProtocol::Start();
}

void StarProtocol::ExecuteBatch(std::vector<Item> batch) {
  // Partition phase: single-home transactions execute on their home nodes.
  // Single-master phase: cross-partition transactions run on the super node
  // after the phase switch.
  std::vector<Item> cross;
  for (auto& item : batch) {
    Transaction* txn = item.txn.get();
    NodeId home = AssignCoordinator(txn);
    if (txn->exec_class() != ExecClass::kSingleNode) {
      cross.push_back(std::move(item));
      continue;
    }
    SimTime start = cluster_->sim()->Now();
    ReadPhase(txn, home,
              [this, item = std::move(item), home, start]() mutable {
                item.txn->breakdown().execution +=
                    cluster_->sim()->Now() - start;
                ApplyAndCommit(std::move(item), home);
              });
  }
  if (cross.empty()) return;
  // Phase switch barrier, then route every cross txn to the super node.
  cluster_->sim()->Schedule(
      kPhaseSwitchDelay, [this, cross = std::move(cross)]() mutable {
        for (auto& item : cross) RunOnSuperNode(std::move(item));
      });
}

void StarProtocol::RunOnSuperNode(Item item) {
  const ClusterConfig& cfg = cluster_->config();
  Transaction* txn = item.txn.get();
  super_node_txns_++;
  // All replicas are local on the super node: the transaction executes as a
  // single-node one (the conversion Star achieves via its phase switching).
  txn->set_exec_class(ExecClass::kRemastered);
  txn->set_coordinator(kSuperNode);

  int total_ops = static_cast<int>(txn->ops().size());
  int total_writes = 0;
  for (PartitionId pid : PartitionsOf(*txn))
    total_writes += txn->CountOps(pid, OpType::kWrite);

  SimTime submit = cluster_->sim()->Now();
  SimTime exec_cost = cfg.txn_setup_cost + txn->extra_compute() +
                      total_ops * cfg.op_local_cost;
  SimTime apply_cost = cfg.log_write_cost + total_writes * cfg.op_local_cost;

  // Every cross transaction consumes super-node worker time: the bottleneck.
  cluster_->pool(kSuperNode)
      ->Submit(TaskPriority::kNew, exec_cost, [this, txn, item = std::move(item),
                                               submit, apply_cost]() mutable {
        txn->breakdown().execution += cluster_->sim()->Now() - submit;
        cluster_->pool(kSuperNode)
            ->Submit(TaskPriority::kResume, apply_cost,
                     [this, txn, item = std::move(item)]() mutable {
              SimTime apply_at = cluster_->sim()->Now();
              for (PartitionId pid : PartitionsOf(*txn)) {
                Occ::ApplyAndUnlock(cluster_->store(pid), txn,
                                    &cluster_->replication());
              }
              txn->breakdown().commit += cluster_->sim()->Now() - apply_at;
              CommitAtEpochEnd(std::move(item));
            });
      });
}


// Self-registration: resolving "Star" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterStarProtocol(
    "Star", ExecutionMode::kBatch,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<StarProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
