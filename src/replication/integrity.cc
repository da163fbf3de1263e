#include "replication/integrity.h"

#include <algorithm>

#include "replication/cluster.h"
#include "replication/failure_injector.h"

namespace lion {

namespace {

std::string PidLabel(PartitionId pid) {
  return "partition " + std::to_string(pid);
}

}  // namespace

IntegrityReport CheckClusterIntegrity(Cluster* cluster,
                                      const FailureInjector* injector,
                                      const CommitLedger* ledger) {
  IntegrityReport report;
  const RouterTable& table = cluster->router();
  const RecoveryLog* log = cluster->recovery_log();

  auto is_down = [&](NodeId n) {
    return injector != nullptr && injector->IsDown(n);
  };
  std::vector<bool> unavailable(static_cast<size_t>(cluster->num_partitions()),
                                false);
  if (injector != nullptr) {
    for (PartitionId pid : injector->unavailable()) {
      unavailable[static_cast<size_t>(pid)] = true;
    }
  }

  for (PartitionId pid = 0; pid < cluster->num_partitions(); ++pid) {
    report.partitions_checked++;
    const ReplicaGroup& group = table.group(pid);
    const PartitionStore* store = cluster->store(pid);
    bool marked_unavailable = unavailable[static_cast<size_t>(pid)];

    // Exactly one live primary: a valid primary node that is not doubled as
    // a secondary, and no node appearing twice in the secondary list.
    NodeId primary = group.primary();
    if (primary < 0 || primary >= cluster->num_nodes()) {
      report.violations.push_back(PidLabel(pid) + ": invalid primary node " +
                                  std::to_string(primary));
      continue;
    }
    std::vector<NodeId> seen;
    for (const ReplicaInfo& sec : group.secondaries()) {
      if (sec.node == primary) {
        report.violations.push_back(PidLabel(pid) + ": primary node " +
                                    std::to_string(primary) +
                                    " doubles as a secondary");
      }
      if (std::find(seen.begin(), seen.end(), sec.node) != seen.end()) {
        report.violations.push_back(PidLabel(pid) + ": node " +
                                    std::to_string(sec.node) +
                                    " holds two secondary replicas");
      }
      seen.push_back(sec.node);
      // Crashed nodes must be dropped from their groups (a flagged-for-
      // delete replica is already logically removed).
      if (!sec.delete_flag && is_down(sec.node)) {
        report.violations.push_back(PidLabel(pid) + ": live secondary on down node " +
                                    std::to_string(sec.node));
      }
      // LSN bookkeeping: no secondary may run ahead of its primary.
      if (sec.applied_lsn > group.primary_lsn()) {
        report.violations.push_back(
            PidLabel(pid) + ": secondary on node " + std::to_string(sec.node) +
            " applied_lsn " + std::to_string(sec.applied_lsn) +
            " ahead of primary_lsn " + std::to_string(group.primary_lsn()));
      }
      // Replay invariant: after the drain no replica may be stuck in
      // recovering state unless its node crashed again or its catch-up is
      // legitimately parked on an unavailable partition.
      if (log != nullptr && sec.recovering && !sec.delete_flag &&
          !is_down(sec.node) && !marked_unavailable) {
        report.violations.push_back(
            PidLabel(pid) + ": replica on node " + std::to_string(sec.node) +
            " still recovering after quiesce (applied_lsn " +
            std::to_string(sec.applied_lsn) + " of " +
            std::to_string(group.primary_lsn()) + ")");
      }
    }

    // A down primary after quiesce means a failover never completed; that
    // is only legal for partitions with no surviving copy, which must be
    // tracked as unavailable and stay blocked.
    if (is_down(primary) && !marked_unavailable) {
      report.violations.push_back(PidLabel(pid) + ": primary on down node " +
                                  std::to_string(primary) +
                                  " without an unavailable marker");
    }

    // No blocked partition outlives its reconfiguration: after the drain
    // the only legitimately blocked partitions are the unavailable ones.
    if (group.reconfig_in_progress() && !marked_unavailable) {
      report.violations.push_back(PidLabel(pid) +
                                  ": reconfiguration still in progress");
    }
    if (marked_unavailable && !group.reconfig_in_progress()) {
      report.violations.push_back(PidLabel(pid) +
                                  ": marked unavailable but not blocked");
    }
    // Every commit round releases the record locks it took, so a drained
    // store holds none; a survivor is a leaked lock that would block writers.
    if (store->held_locks() != 0) {
      report.violations.push_back(PidLabel(pid) + ": " +
                                  std::to_string(store->held_locks()) +
                                  " record locks held after quiesce");
    }

    // Committed effects present: each committed write bumped the record's
    // version exactly once (extra bumps from aborted-then-retried attempts
    // only push the version higher, so >= is the invariant).
    if (ledger != nullptr) {
      for (const auto& kv : ledger->writes(pid)) {
        report.committed_writes_checked++;
        if (!store->Contains(kv.first)) {
          report.violations.push_back(
              PidLabel(pid) + ": committed write to key " +
              std::to_string(kv.first) + " lost (record absent)");
        } else if (store->VersionOf(kv.first) < kv.second) {
          report.violations.push_back(
              PidLabel(pid) + ": key " + std::to_string(kv.first) +
              " version " + std::to_string(store->VersionOf(kv.first)) +
              " below committed write count " + std::to_string(kv.second));
        }
      }
    }

    // Recovery-log accounting. Entries are appended 1:1 with primary-LSN
    // advances, so per partition the durable prefix (snapshots + live
    // suffix) plus everything lost to dirty crashes must add up exactly to
    // the group's LSN — snapshot+truncate and crash truncation may move
    // entries between buckets but never invent or leak them.
    if (log != nullptr) {
      uint64_t accounted = log->DurableEntries(pid) + log->LostEntries(pid);
      if (accounted != group.primary_lsn()) {
        report.violations.push_back(
            PidLabel(pid) + ": recovery log accounts for " +
            std::to_string(accounted) + " entries (durable " +
            std::to_string(log->DurableEntries(pid)) + " + lost " +
            std::to_string(log->LostEntries(pid)) + ") but primary_lsn is " +
            std::to_string(group.primary_lsn()));
      }
      // Snapshot + suffix (+ lost, tracked separately) must reconstruct the
      // ledger's committed effects: the log never under-counts a committed
      // write (retried aborts may over-count, so >= is the invariant).
      if (ledger != nullptr) {
        std::unordered_map<Key, uint64_t> reconstructed =
            log->ReconstructWrites(pid);
        for (const auto& kv : ledger->writes(pid)) {
          report.log_writes_checked++;
          auto it = reconstructed.find(kv.first);
          uint64_t have = it == reconstructed.end() ? 0 : it->second;
          if (have < kv.second) {
            report.violations.push_back(
                PidLabel(pid) + ": recovery log reconstructs " +
                std::to_string(have) + " writes to key " +
                std::to_string(kv.first) + ", ledger committed " +
                std::to_string(kv.second));
          }
        }
      }
    }
  }

  // Breaches the recovery state machine itself detected while running (e.g.
  // a catch-up overrunning its shipped range).
  if (injector != nullptr) {
    for (const std::string& v : injector->recovery_violations()) {
      report.violations.push_back(v);
    }
  }
  return report;
}

}  // namespace lion
