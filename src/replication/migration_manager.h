// Partition copy (AddReplica) and blocking primary movement (MovePrimary).
#pragma once

#include <cstdint>

#include "common/move_fn.h"
#include "common/types.h"
#include "replication/cluster_config.h"
#include "replication/remaster_manager.h"
#include "replication/router_table.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/partition_store.h"

namespace lion {

/// Data movement between nodes, and the replica cap.
///
/// AddReplica models Lion's background replica provisioning (adaptor's
/// AddRepReqHandler): a full partition copy streamed to the target without
/// blocking the primary. MovePrimary models Leap/Clay-style migration: the
/// partition is blocked while its bytes transfer, then mastership switches —
/// the behaviour whose disruption Lion is designed to avoid. Every path that
/// adds a replica here enforces `max_replicas` (EvictIfOverLimit), so
/// callers never do.
class MigrationManager {
 public:
  MigrationManager(Simulator* sim, Network* network, RouterTable* table,
                   std::vector<PartitionStore*> stores,
                   RemasterManager* remaster, const ClusterConfig& config);

  /// Asynchronously copies `pid` to `target` and registers it as a
  /// secondary, then evicts a replica if that exceeds `max_replicas`.
  /// Non-blocking for foreground transactions. If `target` already holds a
  /// replica, clears its delete flag, enforces the cap and calls
  /// `done(true)` at once. `done(false)` if `target` or the primary, the
  /// copy's source, is down at the start, or either is when the copy lands.
  void AddReplica(PartitionId pid, NodeId target, MoveFn<void(bool)> done);

  /// Flags the lowest-frequency removable secondary for deletion when the
  /// live replica count exceeds `max_replicas`; returns the flagged node or
  /// kInvalidNode. Never flags the primary or `keep`.
  NodeId EvictIfOverLimit(PartitionId pid, NodeId keep);

  /// Moves the primary of `pid` to `target`, blocking writes during the
  /// transfer (Leap/Clay semantics). If `target` already has a live
  /// secondary this degenerates to a remaster. `done(false)` on conflict.
  void MovePrimary(PartitionId pid, NodeId target, MoveFn<void(bool)> done);

  /// Record-granule mastership transfer (Leap/Hermes style): moves only the
  /// working set (`accessed_bytes`), blocking the partition for the
  /// transfer's duration, and leaves `target` as the new primary. Unlike
  /// MovePrimary this never copies the whole partition, but it blocks
  /// foreground operations every time it runs. `done(false)` on conflict.
  void MoveMastershipLight(PartitionId pid, NodeId target,
                           uint64_t accessed_bytes, MoveFn<void(bool)> done);

  uint64_t migrations_completed() const { return migrations_completed_; }
  uint64_t migrated_bytes() const { return migrated_bytes_; }
  uint64_t evictions() const { return evictions_; }

 private:
  /// The blocking tail shared by MovePrimary and MoveMastershipLight:
  /// blocks `pid`, streams `bytes` from its primary to `target`, then
  /// promotes `target`, enforces the replica cap and unblocks through
  /// RemasterManager::EndReconfig. `done(false)` if a failover preempted the
  /// transfer or `target` went down or is recovering when it lands.
  void TransferAndPromote(PartitionId pid, NodeId target, uint64_t bytes,
                          MoveFn<void(bool)> done);

  Simulator* sim_;
  Network* network_;
  RouterTable* table_;
  std::vector<PartitionStore*> stores_;
  RemasterManager* remaster_;
  ClusterConfig config_;

  uint64_t migrations_completed_;
  uint64_t migrated_bytes_;
  uint64_t evictions_;
};

}  // namespace lion
