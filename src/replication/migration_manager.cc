#include "replication/migration_manager.h"

#include <limits>
#include <utility>

namespace lion {

namespace {
/// Fixed overhead for starting a partition copy (snapshot setup).
constexpr SimTime kMigrationBaseDelay = 1 * kMillisecond;
}  // namespace

MigrationManager::MigrationManager(Simulator* sim, Network* network,
                                   RouterTable* table,
                                   std::vector<PartitionStore*> stores,
                                   RemasterManager* remaster,
                                   const ClusterConfig& config)
    : sim_(sim),
      network_(network),
      table_(table),
      stores_(std::move(stores)),
      remaster_(remaster),
      config_(config),
      migrations_completed_(0),
      migrated_bytes_(0),
      evictions_(0) {}

void MigrationManager::AddReplica(PartitionId pid, NodeId target,
                                  MoveFn<void(bool)> done) {
  ReplicaGroup* group = table_->mutable_group(pid);
  // The copy streams from the primary. A down primary is either being
  // failed over or has left the partition unavailable; either way it has
  // nothing to copy from.
  if (!table_->IsNodeUp(target) || !table_->IsNodeUp(group->primary())) {
    done(false);
    return;
  }
  if (group->HasReplica(target)) {
    // Already hosted; just clear any delete flag so the replica stays.
    group->AddSecondary(target, 0);
    EvictIfOverLimit(pid, target);
    done(true);
    return;
  }
  NodeId src = group->primary();
  uint64_t bytes = stores_[pid]->SizeBytes();
  Lsn snapshot_lsn = group->primary_lsn();
  migrated_bytes_ += bytes;

  // Background copy: snapshot stream + fixed setup. Writes proceed at the
  // primary meanwhile; the new secondary starts at the snapshot LSN and
  // catches up through normal log shipping.
  sim_->Schedule(kMigrationBaseDelay,
                 [this, pid, src, target, bytes, snapshot_lsn,
                  done = std::move(done)]() mutable {
    network_->Send(src, target, bytes, [this, pid, src, target, snapshot_lsn,
                                        done = std::move(done)]() mutable {
      if (!table_->IsNodeUp(target) || !table_->IsNodeUp(src)) {
        // The target crashed while the copy streamed, which would leave a
        // live secondary on a down node, or the source did, and the network
        // still delivers what a crashed node sent: a copy of a failed
        // primary is not a replica of the partition.
        done(false);
        return;
      }
      table_->mutable_group(pid)->AddSecondary(target, snapshot_lsn);
      migrations_completed_++;
      EvictIfOverLimit(pid, target);
      done(true);
    });
  });
}

NodeId MigrationManager::EvictIfOverLimit(PartitionId pid, NodeId keep) {
  ReplicaGroup* group = table_->mutable_group(pid);
  if (group->LiveReplicaCount() <= config_.max_replicas) return kInvalidNode;
  // Remove the secondary with the lowest access utility. All secondaries of
  // one partition share the partition's frequency, so the least-recently
  // caught-up (largest lag) replica is the cheapest to drop.
  NodeId victim = kInvalidNode;
  Lsn worst_lag = 0;
  bool first = true;
  for (const ReplicaInfo& sec : group->secondaries()) {
    if (sec.delete_flag || sec.node == keep) continue;
    Lsn lag = group->primary_lsn() - sec.applied_lsn;
    if (first || lag > worst_lag) {
      worst_lag = lag;
      victim = sec.node;
      first = false;
    }
  }
  if (victim != kInvalidNode) {
    group->FlagForDelete(victim);
    evictions_++;
    // Physical removal happens shortly after; flagged replicas already stop
    // receiving log entries.
    sim_->Schedule(config_.epoch_interval, [this, pid, victim]() {
      ReplicaGroup* g = table_->mutable_group(pid);
      // The victim may have been re-added (cleared flag) meanwhile.
      for (const ReplicaInfo& sec : g->secondaries()) {
        if (sec.node == victim && sec.delete_flag) {
          g->RemoveSecondary(victim);
          break;
        }
      }
    });
  }
  return victim;
}

void MigrationManager::MoveMastershipLight(PartitionId pid, NodeId target,
                                           uint64_t accessed_bytes,
                                           MoveFn<void(bool)> done) {
  ReplicaGroup* group = table_->mutable_group(pid);
  if (group->primary() == target) {
    done(true);
    return;
  }
  if (group->reconfig_in_progress() || group->IsRecovering(target)) {
    // Recovering targets must not take mastership before catch-up completes.
    done(false);
    return;
  }
  TransferAndPromote(pid, target, accessed_bytes, std::move(done));
}

void MigrationManager::MovePrimary(PartitionId pid, NodeId target,
                                   MoveFn<void(bool)> done) {
  if (!table_->IsNodeUp(target)) {
    done(false);
    return;
  }
  ReplicaGroup* group = table_->mutable_group(pid);
  if (group->primary() == target) {
    done(true);
    return;
  }
  if (group->IsRecovering(target)) {
    // The target holds a replayed-but-not-caught-up replica; promoting it
    // would serve stale state. The caller retries after catch-up settles.
    done(false);
    return;
  }
  if (group->HasSecondary(target)) {
    remaster_->Remaster(pid, target, std::move(done));
    return;
  }
  if (group->reconfig_in_progress()) {
    done(false);
    return;
  }
  // Full blocking copy: the "migration" whose downtime the paper attributes
  // to Leap/Clay. Writes block for the whole transfer.
  TransferAndPromote(pid, target, stores_[pid]->SizeBytes(), std::move(done));
}

void MigrationManager::TransferAndPromote(PartitionId pid, NodeId target,
                                          uint64_t bytes,
                                          MoveFn<void(bool)> done) {
  ReplicaGroup* group = table_->mutable_group(pid);
  const uint64_t token = group->BeginReconfig();
  NodeId src = group->primary();
  migrated_bytes_ += bytes;

  sim_->Schedule(kMigrationBaseDelay,
                 [this, pid, src, target, bytes, token,
                  done = std::move(done)]() mutable {
    network_->Send(src, target, bytes, [this, pid, target, token,
                                        done = std::move(done)]() mutable {
      ReplicaGroup* g = table_->mutable_group(pid);
      if (token != g->reconfig_generation()) {
        // A failover preempted this transfer and owns the block.
        done(false);
        return;
      }
      if (!table_->IsNodeUp(target) || g->IsRecovering(target)) {
        // Target died mid-transfer (or came back still recovering): abort
        // and unblock at the old primary.
        remaster_->EndReconfig(pid, token);
        done(false);
        return;
      }
      g->Promote(target);
      migrations_completed_++;
      EvictIfOverLimit(pid, target);
      // Unblock and run the operations queued behind the block.
      remaster_->EndReconfig(pid, token);
      done(true);
    });
  });
}

}  // namespace lion
