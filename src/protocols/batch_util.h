// Small execution-phase helpers shared by the custom batch protocols.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/move_fn.h"
#include "replication/cluster.h"
#include "sim/network.h"
#include "txn/occ.h"
#include "txn/transaction.h"

namespace lion {
namespace batch_util {

/// Fan-in of `pending` completions into one continuation. The closures of
/// one phase share it; the last Arrive runs `then`.
struct Join {
  Join(size_t pending, MoveFn<void()> then)
      : pending(static_cast<int>(pending)), then(std::move(then)) {}

  void Arrive() {
    if (--pending == 0) then();
  }

  int pending;
  MoveFn<void()> then;
};

/// Runs the read phase of `txn` from `coord`: local partitions read in one
/// worker task, remote partitions via one request/response round each
/// (charged at the serving node). Calls `done` when every partition's reads
/// completed. Also charges the admission cost at `coord`.
inline void ReadPhase(Cluster* cluster, Transaction* txn, NodeId coord,
                      MoveFn<void()> done) {
  auto parts = txn->Partitions();
  auto join = std::make_shared<Join>(parts.size(), std::move(done));
  SimTime setup = cluster->config().txn_setup_cost + txn->extra_compute();

  cluster->pool(coord)->Submit(
      TaskPriority::kNew, setup,
      [cluster, txn, coord, parts = std::move(parts), join]() {
        const ClusterConfig& cfg = cluster->config();
        for (PartitionId pid : parts) {
          int n_ops = static_cast<int>(txn->OpsOn(pid).size());
          NodeId primary = cluster->router().PrimaryOf(pid);
          auto one_done = [join]() { join->Arrive(); };
          if (primary == coord) {
            cluster->pool(coord)->Submit(TaskPriority::kResume,
                                         n_ops * cfg.op_local_cost,
                                         [cluster, txn, pid, one_done]() {
                                           Occ::ReadOps(cluster->store(pid), txn);
                                           one_done();
                                         });
          } else {
            uint64_t req = MessageSizes::kHeader +
                           static_cast<uint64_t>(n_ops) * MessageSizes::kOpRequest;
            uint64_t resp = MessageSizes::kHeader +
                            static_cast<uint64_t>(n_ops) * MessageSizes::kOpResponse;
            cluster->network().Send(
                coord, primary, req,
                [cluster, txn, pid, primary, coord, n_ops, resp, one_done]() {
                  cluster->pool(primary)->Submit(
                      TaskPriority::kService,
                      n_ops * cluster->config().op_service_cost,
                      [cluster, txn, pid, primary, coord, resp, one_done]() {
                        Occ::ReadOps(cluster->store(pid), txn);
                        cluster->network().Send(primary, coord, resp, one_done);
                      });
                });
          }
        }
      });
}

/// Applies `txn`'s writes on every touched partition at its primary node
/// (one worker task per partition), appending to the replication log.
/// Ignores record locks: callers guarantee isolation (deterministic order
/// or granule locks). Calls `done` when all partitions applied.
inline void ApplyWrites(Cluster* cluster, Transaction* txn, NodeId coord,
                        MoveFn<void()> done) {
  const ClusterConfig& cfg = cluster->config();
  auto parts = txn->Partitions();
  auto join = std::make_shared<Join>(parts.size(), std::move(done));
  for (PartitionId pid : parts) {
    int writes = 0;
    for (const auto& op : txn->ops())
      if (op.partition == pid && op.type == OpType::kWrite) writes++;
    NodeId primary = cluster->router().PrimaryOf(pid);
    SimTime cost = cfg.log_write_cost + writes * cfg.op_local_cost;
    auto apply = [cluster, txn, pid, join]() {
      PartitionStore* store = cluster->store(pid);
      for (const auto& op : txn->ops()) {
        if (op.partition != pid || op.type != OpType::kWrite) continue;
        store->Apply(op.key, op.write_value);
        cluster->replication().Append(pid, op.key, op.write_value);
      }
      join->Arrive();
    };
    if (primary == coord) {
      cluster->pool(primary)->Submit(TaskPriority::kResume, cost, apply);
    } else {
      cluster->network().Send(coord, primary,
                              MessageSizes::kHeader +
                                  static_cast<uint64_t>(writes) * MessageSizes::kLogEntry,
                              [cluster, primary, cost, apply]() {
                                cluster->pool(primary)->Submit(
                                    TaskPriority::kService, cost, apply);
                              });
    }
  }
}

/// Node hosting the most of `txn`'s primary partitions.
inline NodeId HomeNode(Cluster* cluster, const Transaction& txn) {
  std::vector<int> count(cluster->num_nodes(), 0);
  for (PartitionId pid : txn.Partitions())
    count[cluster->router().PrimaryOf(pid)]++;
  NodeId best = 0;
  for (NodeId n = 1; n < cluster->num_nodes(); ++n)
    if (count[n] > count[best]) best = n;
  return best;
}

/// True if all primary partitions of `txn` live on one node.
inline bool IsSingleHome(Cluster* cluster, const Transaction& txn) {
  NodeId home = kInvalidNode;
  for (PartitionId pid : txn.Partitions()) {
    NodeId n = cluster->router().PrimaryOf(pid);
    if (home == kInvalidNode) home = n;
    else if (home != n) return false;
  }
  return true;
}

}  // namespace batch_util
}  // namespace lion
