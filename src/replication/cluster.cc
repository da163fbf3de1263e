#include "replication/cluster.h"

namespace lion {

Cluster::Cluster(Simulator* sim, const ClusterConfig& config)
    : sim_(sim),
      config_(config),
      network_(sim, config.net, config.num_nodes),
      router_(config.num_nodes, config.total_partitions()) {
  router_.InitRoundRobin(config_.init_replicas);

  pools_.reserve(config_.num_nodes);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    pools_.push_back(std::make_unique<WorkerPool>(sim_, config_.workers_per_node));
  }

  std::vector<PartitionStore*> raw_stores;
  stores_.reserve(config_.total_partitions());
  for (PartitionId p = 0; p < config_.total_partitions(); ++p) {
    stores_.push_back(std::make_unique<PartitionStore>(
        p, config_.records_per_partition, config_.record_bytes));
    raw_stores.push_back(stores_.back().get());
  }

  replication_ = std::make_unique<ReplicationManager>(sim_, &network_, &router_,
                                                      raw_stores, config_);
  remaster_ = std::make_unique<RemasterManager>(sim_, &network_, &router_,
                                                config_);
  migration_ = std::make_unique<MigrationManager>(
      sim_, &network_, &router_, raw_stores, remaster_.get(), config_);
}

void Cluster::Start() {
  replication_->Start();
  if (recovery_log_) recovery_log_->Start();
}

void Cluster::EnableRecovery(const RecoveryConfig& config) {
  if (recovery_log_) return;
  recovery_log_ = std::make_unique<RecoveryLog>(sim_, config, num_nodes(),
                                                num_partitions());
  replication_->SetRecoveryLog(recovery_log_.get());
}

}  // namespace lion
