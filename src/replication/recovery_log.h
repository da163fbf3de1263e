// Per-node durable replication log backing crash recovery.
//
// Every committed write appended through ReplicationManager lands here on
// the primary's node, and every replica applied-position advance (epoch
// shipping ack, catch-up shipment, failover log sync) is recorded as a
// durable mark. On a crash the injector asks for each partition's durable
// LSN — everything for a clean crash, only marks older than the fsync
// horizon (recovery.durability_lag_us) for a dirty one — and the surviving
// prefix is what RecoverNode replays before catch-up streams the rest from
// live primaries. Periodic snapshot+truncate (recovery.snapshot_interval_ms)
// folds the durable prefix into per-partition snapshots so replay work and
// log memory stay bounded.
//
// The log doubles as the integrity checker's accounting source: per
// partition, snapshot entries + live suffix + entries lost to dirty crashes
// must add up to the group's primary LSN, and the per-key write counts must
// reconstruct the commit ledger's effects.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "replication/recovery_config.h"
#include "sim/periodic_timer.h"
#include "sim/simulator.h"

namespace lion {

class RecoveryLog {
 public:
  RecoveryLog(Simulator* sim, const RecoveryConfig& config, int num_nodes,
              int num_partitions);

  const RecoveryConfig& config() const { return config_; }

  /// Arms the periodic snapshot+truncate pass (weak events — the pass never
  /// keeps a drain alive). No-op when snapshot_interval is 0.
  void Start();

  /// Durable append on the primary's node for one committed write. Called
  /// by ReplicationManager::Append, so entries are 1:1 with primary-LSN
  /// advances.
  void AppendCommit(NodeId node, PartitionId pid, Key key, Lsn lsn);

  /// Durable applied-position mark for the replica of `pid` on `node`
  /// (epoch shipping ack, catch-up shipment delivery, failover log sync).
  void NoteApplied(NodeId node, PartitionId pid, Lsn lsn);

  /// Highest LSN of `pid` on `node` surviving a crash now: the full log for
  /// a clean crash, only marks at or older than now - durability_lag (plus
  /// the snapshot floor) for a dirty one.
  Lsn DurableLsn(NodeId node, PartitionId pid, bool dirty) const;

  /// Applies crash truncation to `node`'s log. A dirty crash drops marks
  /// and committed entries younger than the fsync horizon (entries move to
  /// the partition's lost accounting); a clean crash keeps everything.
  void Crash(NodeId node, bool dirty);

  /// Snapshot+truncate one node: folds its durable marks into per-partition
  /// snapshot LSNs and its committed entries into the partition snapshots.
  /// Also forced by "truncate N" chaos schedule events.
  void SnapshotNode(NodeId node);

  // --- integrity / reporting ------------------------------------------------
  uint64_t entries_appended() const { return entries_appended_; }
  uint64_t snapshots_taken() const { return snapshots_taken_; }
  uint64_t total_lost_entries() const;
  /// Snapshot entries + live suffix entries of `pid` across all nodes.
  uint64_t DurableEntries(PartitionId pid) const;
  /// Entries of `pid` dropped by dirty crashes.
  uint64_t LostEntries(PartitionId pid) const;
  /// Committed writes per key of `pid` that the log can account for:
  /// snapshot + suffix + lost (lost entries are tracked separately so the
  /// checker can tell "dropped by a dirty crash" from "never logged").
  std::unordered_map<Key, uint64_t> ReconstructWrites(PartitionId pid) const;

 private:
  /// One durable applied-position mark (coalesced per timestamp).
  struct Mark {
    Lsn lsn = 0;
    SimTime at = 0;
  };
  /// One committed write in a partition's durable history, tagged with the
  /// node whose log file carries it.
  struct Entry {
    NodeId node = kInvalidNode;
    Key key = 0;
    Lsn lsn = 0;
    SimTime at = 0;
  };
  struct NodePartition {
    Lsn snapshot_lsn = 0;
    std::vector<Mark> marks;  // ascending in time, LSNs nondecreasing
  };
  struct PartitionHistory {
    uint64_t snapshot_entries = 0;
    std::unordered_map<Key, uint64_t> snapshot_writes;
    std::vector<Entry> suffix;
    uint64_t lost_entries = 0;
    std::unordered_map<Key, uint64_t> lost_writes;
  };

  void PushMark(NodeId node, PartitionId pid, Lsn lsn);
  /// The periodic pass: SnapshotNode on every node.
  void SnapshotAll();

  Simulator* sim_;
  RecoveryConfig config_;
  PeriodicTimer snapshot_timer_;
  std::vector<std::vector<NodePartition>> nodes_;  // [node][pid]
  std::vector<PartitionHistory> history_;          // [pid]
  uint64_t entries_appended_ = 0;
  uint64_t snapshots_taken_ = 0;
};

}  // namespace lion
