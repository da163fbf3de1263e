// Asynchronous log shipping with epoch-based group commit (Sec. V).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/move_fn.h"
#include "common/types.h"
#include "replication/cluster_config.h"
#include "replication/router_table.h"
#include "sim/network.h"
#include "sim/periodic_timer.h"
#include "sim/simulator.h"
#include "storage/partition_store.h"

namespace lion {

class RecoveryLog;

/// Ships committed writes from each primary to its secondaries once per
/// epoch (10 ms default), mirroring the paper's epoch-based group commit:
/// commits inside an epoch become visible when the epoch ends and the
/// buffered log entries are dispatched asynchronously to all replicas. A log
/// entry is a key and the version its commit installed; a record has no
/// other content, and an entry's size on the wire is the constant
/// MessageSizes::kLogEntry.
class ReplicationManager {
 public:
  ReplicationManager(Simulator* sim, Network* network, RouterTable* table,
                     std::vector<PartitionStore*> stores,
                     const ClusterConfig& config);

  /// Starts the periodic epoch ticker.
  void Start();

  /// Appends one committed write, the version it installed, to the
  /// partition's replication log. The write was already applied to the
  /// authoritative store by commit.
  void Append(PartitionId pid, Key key, Version version);

  /// Runs `fn` at the end of the current epoch (group-commit visibility).
  /// Waiters of one epoch share a single keep-alive event.
  void OnEpochEnd(MoveFn<void()> fn);

  // --- durable recovery log (recovery.*) -----------------------------------
  /// Attaches the per-node durable log (null detaches): committed appends
  /// and shipping acks are then recorded durably so crashed nodes can
  /// replay. `log` must outlive this manager.
  void SetRecoveryLog(RecoveryLog* log) { recovery_log_ = log; }

  /// Ships the log range (from, upto] of `pid` from its current primary to
  /// the recovering replica on `dst`, priced through the topology
  /// bandwidth/latency tables like epoch shipping. On delivery the replica
  /// is acked to `upto` (and the position recorded durably), then
  /// `on_delivered` runs. One catch-up batch per call; the failure injector
  /// chains batches and re-validates its generation token between them.
  void ShipRange(PartitionId pid, NodeId dst, Lsn from, Lsn upto,
                 MoveFn<void()> on_delivered);

  uint64_t catch_up_entries_shipped() const {
    return catch_up_entries_shipped_;
  }

  // --- replica-lag storms (chaos schedules) --------------------------------
  /// Pauses log shipping: epochs keep closing (group-commit visibility is
  /// unaffected) but pending entries stay buffered and secondaries stop
  /// acking, so replica lag builds — and with it, failover election time.
  /// Nests; shipping resumes at the matching ResumeShipping.
  void PauseShipping() { shipping_paused_++; }
  void ResumeShipping() {
    if (shipping_paused_ > 0) shipping_paused_--;
  }

  /// Per-replica materialized copies for consistency tests: each key the
  /// replica was shipped, mapped to the last version shipped for it. Only
  /// populated when config.materialize_secondaries is set. Indexed
  /// [pid][node].
  const std::unordered_map<Key, Version>* MaterializedCopy(PartitionId pid,
                                                           NodeId node) const;

  uint64_t total_entries_shipped() const { return total_entries_shipped_; }

 private:
  struct LogEntry {
    Key key;
    Version version;
  };

  /// Time of the next epoch boundary.
  SimTime NextEpochEnd() const;

  /// Closes the epoch: ships every pending log and releases the waiters.
  /// The epoch timer calls it at each boundary.
  void CloseEpochNow();

  void ShipPartition(PartitionId pid);
  /// Advances the replica's applied LSN and records it durably when a
  /// recovery log is attached.
  void Ack(PartitionId pid, NodeId dst, Lsn lsn);

  Simulator* sim_;
  Network* network_;
  RouterTable* table_;
  std::vector<PartitionStore*> stores_;
  ClusterConfig config_;

  SimTime epoch_started_at_;
  PeriodicTimer epoch_timer_;
  uint64_t total_entries_shipped_;
  RecoveryLog* recovery_log_ = nullptr;
  uint64_t catch_up_entries_shipped_ = 0;
  int shipping_paused_ = 0;
  // Per partition: the entries appended since its last shipment, counted
  // always and buffered only when secondaries are materialized, the one
  // reader of their keys and versions.
  std::vector<uint64_t> pending_count_;
  std::vector<std::vector<LogEntry>> pending_;
  std::vector<MoveFn<void()>> epoch_waiters_;
  // Waiters being released by CloseEpochNow; swapped with epoch_waiters_ so
  // both keep their capacity from epoch to epoch.
  std::vector<MoveFn<void()>> firing_waiters_;
  // Epoch boundary the last keep-alive event was scheduled for.
  SimTime keepalive_at_ = -1;
  // [pid][node] -> materialized secondary copy.
  std::unordered_map<uint64_t, std::unordered_map<Key, Version>> copies_;
};

}  // namespace lion
