// Replica placement metadata for one partition.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.h"

namespace lion {

/// One secondary replica's state.
struct ReplicaInfo {
  NodeId node = kInvalidNode;
  /// Highest log sequence number applied at this replica. The gap to the
  /// primary's LSN is the "lag" that remastering must synchronize.
  Lsn applied_lsn = 0;
  /// Set when the replica has been chosen for removal (max-replica limit);
  /// replication stops shipping to flagged replicas (Sec. IV-B2).
  bool delete_flag = false;
  /// Set while a crash-recovered replica is replaying/catching up from its
  /// durable log position: epoch shipping skips it (the dedicated catch-up
  /// stream owns its applied LSN) and elections rank it below any caught-up
  /// copy. Cleared when catch-up reaches the primary's LSN.
  bool recovering = false;
};

/// Placement and log state of all replicas of one partition.
///
/// Exactly one primary serves writes; secondaries receive the log
/// asynchronously. This is metadata only — record data lives in the
/// authoritative PartitionStore.
class ReplicaGroup {
 public:
  ReplicaGroup() = default;
  ReplicaGroup(PartitionId pid, NodeId primary) : pid_(pid), primary_(primary) {}

  PartitionId partition() const { return pid_; }
  NodeId primary() const { return primary_; }
  Lsn primary_lsn() const { return primary_lsn_; }

  const std::vector<ReplicaInfo>& secondaries() const { return secondaries_; }

  /// True if `node` holds any replica (primary or secondary).
  bool HasReplica(NodeId node) const {
    return node == primary_ || FindSecondary(node) != nullptr;
  }

  /// True if `node` holds a live (non-delete-flagged) secondary replica.
  bool HasSecondary(NodeId node) const {
    const ReplicaInfo* info = FindSecondary(node);
    return info != nullptr && !info->delete_flag;
  }

  /// Number of live replicas (primary + unflagged secondaries).
  int LiveReplicaCount() const {
    int n = 1;
    for (const auto& s : secondaries_)
      if (!s.delete_flag) n++;
    return n;
  }

  /// Applied LSN of the secondary on `node`; 0 if absent.
  Lsn AppliedLsnOf(NodeId node) const {
    const ReplicaInfo* info = FindSecondary(node);
    return info == nullptr ? 0 : info->applied_lsn;
  }

  /// True if `node` holds a secondary still replaying/catching up.
  bool IsRecovering(NodeId node) const {
    const ReplicaInfo* info = FindSecondary(node);
    return info != nullptr && info->recovering;
  }

  /// Marks/unmarks the secondary on `node` as recovering.
  void SetRecovering(NodeId node, bool v) {
    if (ReplicaInfo* info = MutableSecondary(node)) info->recovering = v;
  }

  /// Log lag of the secondary on `node`; 0 if it is the primary or absent.
  Lsn LagOf(NodeId node) const {
    const ReplicaInfo* info = FindSecondary(node);
    if (info == nullptr) return 0;
    return primary_lsn_ - info->applied_lsn;
  }

  /// Appends `entries` writes to the primary's log.
  void Advance(Lsn entries) { primary_lsn_ += entries; }

  /// Marks the secondary on `node` as caught up to `lsn`.
  void Ack(NodeId node, Lsn lsn) {
    ReplicaInfo* info = MutableSecondary(node);
    if (info != nullptr && info->applied_lsn < lsn) info->applied_lsn = lsn;
  }

  /// Registers a new secondary on `node`, caught up to `lsn`.
  /// No-op if the node already holds a replica (clears any delete flag).
  void AddSecondary(NodeId node, Lsn lsn) {
    if (node == primary_) return;
    if (ReplicaInfo* info = MutableSecondary(node)) {
      info->delete_flag = false;
      if (info->applied_lsn < lsn) info->applied_lsn = lsn;
      return;
    }
    secondaries_.push_back(ReplicaInfo{node, lsn, false});
  }

  /// Removes the secondary hosted on `node` (if any).
  void RemoveSecondary(NodeId node) {
    secondaries_.erase(
        std::remove_if(secondaries_.begin(), secondaries_.end(),
                       [node](const ReplicaInfo& r) { return r.node == node; }),
        secondaries_.end());
  }

  /// Flags the secondary on `node` for deletion (replication stops).
  void FlagForDelete(NodeId node) {
    if (ReplicaInfo* info = MutableSecondary(node)) info->delete_flag = true;
  }

  /// Makes `node` the primary; the old primary becomes a fully-caught-up
  /// secondary and any secondary entry of `node` is dropped, so `node` need
  /// not have held a replica before (full-copy migration, test setup).
  /// No-op if `node` is already primary.
  void Promote(NodeId node) {
    if (node == primary_) return;
    NodeId old_primary = primary_;
    RemoveSecondary(node);
    primary_ = node;
    AddSecondary(old_primary, primary_lsn_);
  }

  /// True while a reconfiguration blocks the partition: operations wait
  /// (RemasterManager::WaitUntilAvailable) until it ends.
  bool reconfig_in_progress() const { return reconfig_in_progress_; }

  /// Starts a reconfiguration (remaster, migration, failover, or an
  /// unavailable partition's wait for recovery), blocks the partition and
  /// returns a generation token. The completion lifts the block by passing
  /// its token to RemasterManager::EndReconfig; a failover that preempts an
  /// in-flight reconfiguration calls BeginReconfig again, which bumps the
  /// generation and so invalidates the superseded token.
  uint64_t BeginReconfig() {
    reconfig_in_progress_ = true;
    return ++reconfig_generation_;
  }

  uint64_t reconfig_generation() const { return reconfig_generation_; }

 private:
  // Only RemasterManager::EndReconfig lifts a block, so the operations
  // parked behind it always run.
  friend class RemasterManager;

  /// Ends the reconfiguration identified by `token`. Returns false (and
  /// changes nothing) if a newer reconfiguration has taken over.
  bool EndReconfig(uint64_t token) {
    if (token != reconfig_generation_ || !reconfig_in_progress_) return false;
    reconfig_in_progress_ = false;
    return true;
  }

  const ReplicaInfo* FindSecondary(NodeId node) const {
    for (const auto& s : secondaries_)
      if (s.node == node) return &s;
    return nullptr;
  }
  ReplicaInfo* MutableSecondary(NodeId node) {
    for (auto& s : secondaries_)
      if (s.node == node) return &s;
    return nullptr;
  }

  PartitionId pid_ = kInvalidPartition;
  NodeId primary_ = kInvalidNode;
  Lsn primary_lsn_ = 0;
  bool reconfig_in_progress_ = false;
  uint64_t reconfig_generation_ = 0;
  std::vector<ReplicaInfo> secondaries_;
};

}  // namespace lion
