// Assembly of the simulated share-nothing cluster.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "replication/cluster_config.h"
#include "replication/migration_manager.h"
#include "replication/recovery_log.h"
#include "replication/remaster_manager.h"
#include "replication/replication_manager.h"
#include "replication/router_table.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/worker_pool.h"
#include "storage/partition_store.h"

namespace lion {

/// Owns every simulated component of one cluster: node worker pools, the
/// partition stores, placement metadata, and the replication/remaster/
/// migration machinery. Protocols and the Lion planner operate on top of
/// this substrate.
class Cluster {
 public:
  Cluster(Simulator* sim, const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }
  Simulator* sim() { return sim_; }

  int num_nodes() const { return config_.num_nodes; }
  int num_partitions() const { return config_.total_partitions(); }

  WorkerPool* pool(NodeId node) { return pools_[node].get(); }
  PartitionStore* store(PartitionId pid) { return stores_[pid].get(); }

  RouterTable& router() { return router_; }
  const RouterTable& router() const { return router_; }
  Network& network() { return network_; }
  ReplicationManager& replication() { return *replication_; }
  RemasterManager& remaster() { return *remaster_; }
  MigrationManager& migration() { return *migration_; }

  /// Attaches the durable recovery log (recovery.enabled). Call before any
  /// writes are appended so the log's accounting covers the whole run;
  /// idempotent. Crashed nodes then recover by replay + catch-up instead of
  /// rejoining empty.
  void EnableRecovery(const RecoveryConfig& config);
  /// Null unless EnableRecovery was called.
  RecoveryLog* recovery_log() { return recovery_log_.get(); }
  const RecoveryLog* recovery_log() const { return recovery_log_.get(); }

  /// Starts background machinery (epoch ticker).
  void Start();

  /// Node hosting the primary replica of `pid`.
  NodeId PrimaryOf(PartitionId pid) const { return router_.PrimaryOf(pid); }

 private:
  Simulator* sim_;
  ClusterConfig config_;
  Network network_;
  RouterTable router_;
  std::vector<std::unique_ptr<WorkerPool>> pools_;
  std::vector<std::unique_ptr<PartitionStore>> stores_;
  std::unique_ptr<ReplicationManager> replication_;
  std::unique_ptr<RemasterManager> remaster_;
  std::unique_ptr<MigrationManager> migration_;
  std::unique_ptr<RecoveryLog> recovery_log_;
};

}  // namespace lion
