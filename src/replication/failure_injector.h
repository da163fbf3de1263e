// Node failure injection, failover via secondary election, and durable
// log-backed recovery.
//
// The replicas Lion piggybacks on exist for high availability (Sec. I-II):
// when a node fails, every partition it mastered elects its most caught-up
// live secondary as the new primary — the same log-sync + leader-election
// path as planned remastering. This module injects such failures so tests
// and experiments can observe availability and failover cost. With a
// RecoveryLog attached (recovery.enabled), it also owns the recovery state
// machine: crash capture of each partition's durable LSN, replay on
// RecoverNode, and the recovering -> caught_up catch-up stream from live
// primaries.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "replication/cluster.h"

namespace lion {

class FailureInjector {
 public:
  explicit FailureInjector(Cluster* cluster);

  /// Fails `node` at the current simulated time. Every partition whose
  /// primary lived there starts a failover election: the most caught-up
  /// live secondary is promoted after syncing its log lag plus the election
  /// delay; operations on the partition block meanwhile. Replicas hosted on
  /// the failed node are dropped from their groups. Partitions left with no
  /// live secondary become unavailable until RecoverNode. A partition
  /// already mid-reconfiguration (migration or remaster in flight) is taken
  /// over cleanly: the stale completion is invalidated through the group's
  /// reconfiguration generation and the failover owns the block, so
  /// nothing double-blocks and no waiter is leaked.
  ///
  /// With a recovery log attached this is a *clean* crash: the node's whole
  /// log survives (the flush won the race) and its durable position per
  /// partition is captured for replay at RecoverNode.
  void FailNode(NodeId node);

  /// Like FailNode, but the crash discards the unsynced log suffix: entries
  /// younger than recovery.durability_lag_us never reached stable storage
  /// and are lost ("crash_dirty" schedule events). Identical to FailNode
  /// when no recovery log is attached.
  void FailNodeDirty(NodeId node);

  /// Brings `node` back. Without a recovery log it rejoins with no replicas
  /// (the planner or adaptors re-provision it over time). With one, the
  /// node replays its surviving log prefix: each replica it held at crash
  /// is re-registered at its durable LSN in `recovering` state — epoch
  /// shipping skips it and elections rank it below any caught-up copy —
  /// then a catch-up stream ships the missing entries from the live
  /// primary, batch by batch through the topology's bandwidth/latency
  /// tables. Once the applied LSN reaches the primary's the replica flips
  /// to caught_up (electable again); the node's last catch-up to settle
  /// closes its recovery record. Crash generation tokens invalidate
  /// in-flight catch-up steps if the node fails again mid-recovery.
  /// Partitions that were unavailable resume on the recovered node's own
  /// copy as a last resort; when that copy's durable prefix is short of the
  /// group's LSN this is a stale election, counted in stale_elections()
  /// instead of passing silently.
  void RecoverNode(NodeId node);

  bool IsDown(NodeId node) const { return down_[node]; }

  uint64_t failovers_completed() const { return failovers_completed_; }
  /// Elections whose candidate was found dead at promotion-fire time and
  /// had to re-run (the fire-time liveness re-validation).
  uint64_t elections_rerun() const { return elections_rerun_; }
  uint64_t partitions_unavailable() const { return unavailable_.size(); }
  const std::vector<PartitionId>& unavailable() const { return unavailable_; }

  // --- recovery state machine (recovery.enabled) ---------------------------
  /// Last-resort elections that promoted/resumed a stale copy (one whose
  /// durable position was behind the group's LSN, or one still recovering)
  /// because no caught-up copy survived.
  uint64_t stale_elections() const { return stale_elections_; }
  /// Node recoveries that replayed a durable log (vs rejoining empty).
  uint64_t recoveries_replayed() const { return recoveries_replayed_; }

  /// One completed catch-up of a recovered replica.
  struct CatchUpRecord {
    NodeId node = kInvalidNode;
    PartitionId partition = kInvalidPartition;
    SimTime started = 0;
    SimTime finished = 0;
    /// replay base -> shipped head, the range streamed from the primary.
    uint64_t entries = 0;
  };
  const std::vector<CatchUpRecord>& catch_ups() const { return catch_ups_; }

  /// One node recovery from RecoverNode to its last catch-up settling.
  struct RecoveryRecord {
    NodeId node = kInvalidNode;
    SimTime started = 0;
    SimTime finished = 0;
    int partitions = 0;
  };
  const std::vector<RecoveryRecord>& recoveries() const { return recoveries_; }

  /// Replay-invariant breaches detected while the state machine ran (e.g. a
  /// catch-up whose applied LSN overran the shipped range, or a stale
  /// replica elected while a caught-up copy existed). Folded into the
  /// integrity report.
  const std::vector<std::string>& recovery_violations() const {
    return recovery_violations_;
  }

 private:
  void FailNodeImpl(NodeId node, bool dirty);
  void Failover(PartitionId pid, NodeId dead);
  void MarkUnavailable(PartitionId pid);

  // Catch-up stream: one step ships one batch and re-validates the crash
  // generation, liveness and replica state before the next.
  void CatchUpStep(NodeId node, PartitionId pid, uint64_t generation);
  void FinishCatchUp(NodeId node, PartitionId pid);
  /// Marks one of `node`'s in-flight catch-ups settled (completed or
  /// superseded); the last one closes the node's recovery record.
  void CatchUpSettled(NodeId node);
  /// Resumes catch-ups parked on `pid` (its primary was down); called when
  /// a failover completes or the primary's node recovers.
  void ResumeParkedCatchUps(PartitionId pid);

  static uint64_t CatchUpKey(NodeId node, PartitionId pid) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 32) |
           static_cast<uint32_t>(pid);
  }

  Cluster* cluster_;
  std::vector<bool> down_;
  std::vector<PartitionId> unavailable_;
  uint64_t failovers_completed_ = 0;
  uint64_t elections_rerun_ = 0;

  // --- recovery bookkeeping (only touched when a RecoveryLog is attached) --
  struct InFlightCatchUp {
    Lsn replay_base = 0;
    Lsn shipped_to = 0;
    SimTime started = 0;
  };
  /// Bumped on every crash of the node; in-flight catch-up steps carry the
  /// generation they started under and abort when it has moved on.
  std::vector<uint64_t> crash_generation_;
  /// Durable LSN per partition the node held a replica of, captured at
  /// crash time (the replay image). Valid while the node is down.
  std::vector<std::unordered_map<PartitionId, Lsn>> crash_image_;
  std::unordered_map<uint64_t, InFlightCatchUp> active_catch_up_;
  /// Catch-ups waiting for `pid`'s primary to come back: (node, generation).
  std::unordered_map<PartitionId, std::vector<std::pair<NodeId, uint64_t>>>
      parked_catch_up_;
  std::vector<int> catch_ups_in_flight_;  // per node
  std::vector<SimTime> recovery_started_;  // per node; -1 when not recovering
  std::vector<int> recovery_partitions_;   // per node, replicas replayed
  uint64_t stale_elections_ = 0;
  uint64_t recoveries_replayed_ = 0;
  std::vector<CatchUpRecord> catch_ups_;
  std::vector<RecoveryRecord> recoveries_;
  std::vector<std::string> recovery_violations_;
};

}  // namespace lion
