#include "protocols/hermes.h"

#include <algorithm>
#include <utility>

#include "txn/occ.h"

#include "harness/registry.h"

namespace lion {

namespace {
/// Lock-manager processing time per lock request.
constexpr SimTime kLockCostPerOp = 2 * kMicrosecond;
}  // namespace

HermesProtocol::HermesProtocol(Cluster* cluster, MetricsCollector* metrics)
    : BatchProtocol(cluster, metrics) {
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    lock_managers_.push_back(std::make_unique<WorkerPool>(cluster->sim(), 1));
  }
}

/// A transaction pulling its remote partitions' mastership to `dst` before
/// it runs. One migration callback of the chain owns it at a time.
struct HermesProtocol::Pull {
  Item item;
  NodeId dst = kInvalidNode;
  std::vector<PartitionId> missing;
};

void HermesProtocol::ExecuteBatch(std::vector<Item> batch) {
  // Prescient reordering: group transactions by partition signature so
  // consecutive ones reuse each other's migrations. Each signature is built
  // once and the sort compares only signatures.
  std::vector<std::pair<std::vector<PartitionId>, Item>> keyed;
  keyed.reserve(batch.size());
  for (Item& item : batch) {
    std::vector<PartitionId> signature = item.txn->Partitions();
    keyed.emplace_back(std::move(signature), std::move(item));
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (auto& [parts, item] : keyed) {
    MigrateThenRun(std::move(item), std::move(parts));
  }
}

void HermesProtocol::MigrateThenRun(Item item,
                                    std::vector<PartitionId> parts) {
  Transaction* txn = item.txn.get();
  NodeId dst = cluster_->router().MostPrimariesNode(parts);
  // What remains of `parts` is what must migrate to dst.
  parts.erase(std::remove_if(parts.begin(), parts.end(),
                             [&](PartitionId pid) {
                               return cluster_->router().PrimaryOf(pid) == dst;
                             }),
              parts.end());
  txn->set_coordinator(dst);
  txn->set_exec_class(parts.empty() ? ExecClass::kSingleNode
                                    : ExecClass::kRemastered);
  MigrateNext(
      std::make_unique<Pull>(Pull{std::move(item), dst, std::move(parts)}), 0);
}

void HermesProtocol::MigrateNext(std::unique_ptr<Pull> pull, size_t index) {
  // Placement may have changed while waiting: skip already-local entries.
  while (index < pull->missing.size() &&
         cluster_->router().PrimaryOf(pull->missing[index]) == pull->dst) {
    index++;
  }
  if (index >= pull->missing.size()) {
    RunLocal(std::move(pull->item), pull->dst);
    return;
  }
  // Read what the call needs before the callback takes `pull`.
  PartitionId pid = pull->missing[index];
  NodeId dst = pull->dst;
  uint64_t bytes = static_cast<uint64_t>(pull->item.txn->CountOps(pid)) *
                   cluster_->config().record_bytes;
  migrations_requested_++;
  cluster_->migration().MoveMastershipLight(
      pid, dst, bytes,
      [this, pull = std::move(pull), index, pid](bool ok) mutable {
        if (!ok) {
          // A migration is in flight; deterministic order means we simply
          // wait and retry (no aborts in Hermes).
          cluster_->remaster().WaitUntilAvailable(
              pid, [this, pull = std::move(pull), index]() mutable {
                MigrateNext(std::move(pull), index);
              });
          return;
        }
        MigrateNext(std::move(pull), index + 1);
      });
}

void HermesProtocol::RunLocal(Item item, NodeId dst) {
  Transaction* txn = item.txn.get();
  int total_ops = static_cast<int>(txn->ops().size());
  SimTime lock_submit = cluster_->sim()->Now();

  // Serial lock manager grant, then local execution and write application.
  lock_managers_[dst]->Submit(
      TaskPriority::kService, total_ops * kLockCostPerOp,
      [this, txn, item = std::move(item), dst, total_ops,
       lock_submit]() mutable {
        txn->breakdown().scheduling += cluster_->sim()->Now() - lock_submit;
        const ClusterConfig& cfg = cluster_->config();
        SimTime exec_start = cluster_->sim()->Now();
        cluster_->pool(dst)->Submit(
            TaskPriority::kResume,
            cfg.txn_setup_cost + txn->extra_compute() +
                total_ops * cfg.op_local_cost,
            [this, txn, item = std::move(item), dst, exec_start]() mutable {
              for (PartitionId pid : PartitionsOf(*txn)) {
                Occ::ReadOps(cluster_->store(pid), txn);
              }
              txn->breakdown().execution += cluster_->sim()->Now() - exec_start;
              ApplyAndCommit(std::move(item), dst);
            });
      });
}


// Self-registration: resolving "Hermes" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterHermesProtocol(
    "Hermes", ExecutionMode::kBatch,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<HermesProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
