#include "replication/failure_injector.h"

#include <algorithm>

namespace lion {

FailureInjector::FailureInjector(Cluster* cluster)
    : cluster_(cluster),
      down_(cluster->num_nodes(), false),
      crash_generation_(cluster->num_nodes(), 0),
      crash_image_(cluster->num_nodes()),
      catch_ups_in_flight_(cluster->num_nodes(), 0),
      recovery_started_(cluster->num_nodes(), -1),
      recovery_partitions_(cluster->num_nodes(), 0) {}

void FailureInjector::FailNode(NodeId node) { FailNodeImpl(node, false); }

void FailureInjector::FailNodeDirty(NodeId node) { FailNodeImpl(node, true); }

void FailureInjector::FailNodeImpl(NodeId node, bool dirty) {
  if (down_[node]) return;

  RecoveryLog* log = cluster_->recovery_log();
  crash_generation_[node]++;  // invalidates catch-up steps TO this node
  if (log != nullptr) {
    // Capture the replay image before the groups drop this node's replicas:
    // the durable position of every partition it hosts, after the crash's
    // fsync-horizon truncation.
    log->Crash(node, dirty);
    crash_image_[node].clear();
    for (PartitionId pid = 0; pid < cluster_->num_partitions(); ++pid) {
      if (cluster_->router().group(pid).HasReplica(node)) {
        crash_image_[node][pid] = log->DurableLsn(node, pid, dirty);
      }
    }
    // A second crash mid-recovery abandons the previous recovery attempt;
    // its in-flight steps die against the bumped generation.
    catch_ups_in_flight_[node] = 0;
    recovery_started_[node] = -1;
    recovery_partitions_[node] = 0;
  }

  down_[node] = true;
  cluster_->router().SetNodeUp(node, false);

  for (PartitionId pid = 0; pid < cluster_->num_partitions(); ++pid) {
    ReplicaGroup* group = cluster_->router().mutable_group(pid);
    if (group->primary() == node) {
      Failover(pid, node);
    } else if (group->HasReplica(node)) {
      // A secondary died: just drop it from the group (log shipping to it
      // stops; the planner may re-provision elsewhere).
      group->RemoveSecondary(node);
    }
  }
}

void FailureInjector::Failover(PartitionId pid, NodeId dead) {
  ReplicaGroup* group = cluster_->router().mutable_group(pid);

  // Elect the most caught-up live secondary. A replica still replaying/
  // catching up after a crash never beats a caught-up copy — promoting a
  // stale log while a complete one exists would lose acknowledged writes —
  // and is electable only as a last resort (counted as a stale election at
  // promotion). Equal LSNs keep the first candidate in group order.
  NodeId candidate = kInvalidNode;
  Lsn best_lsn = 0;
  bool candidate_recovering = false;
  for (const ReplicaInfo& sec : group->secondaries()) {
    if (sec.delete_flag || down_[sec.node]) continue;
    bool better;
    if (candidate == kInvalidNode) {
      better = true;
    } else if (sec.recovering != candidate_recovering) {
      better = !sec.recovering;
    } else {
      better = sec.applied_lsn > best_lsn;
    }
    if (better) {
      candidate = sec.node;
      best_lsn = sec.applied_lsn;
      candidate_recovering = sec.recovering;
    }
  }
  if (candidate == kInvalidNode) {
    MarkUnavailable(pid);
    return;
  }

  // Election: block the partition, sync the lag, promote, drop the dead
  // replica. Reuses the remastering cost model (Sec. III: the failover path
  // and planned remastering share the log-sync + election mechanism).
  // BeginReconfig bumps the group's reconfiguration generation, so a
  // migration or remaster completion already in flight for this partition
  // finds its token stale and backs off instead of fighting the failover
  // for the block.
  const ClusterConfig& cfg = cluster_->config();
  const uint64_t token = group->BeginReconfig();
  Lsn lag = group->primary_lsn() - best_lsn;
  SimTime delay = cfg.remaster_base_delay +
                  static_cast<SimTime>(lag) * cfg.remaster_per_entry;
  cluster_->sim()->Schedule(delay, [this, pid, candidate, dead, token]() {
    ReplicaGroup* g = cluster_->router().mutable_group(pid);
    // A newer reconfiguration (e.g. the candidate's own node failing, which
    // re-ran this election) owns the partition now; this completion is
    // stale.
    if (token != g->reconfig_generation()) return;
    // Re-validate the winner at promotion time: the candidate may have died
    // (or its replica been dropped) while the election was syncing the log.
    // Promoting a dead node would violate the single-live-primary
    // invariant, so re-run the election against the current membership.
    if (down_[candidate] || !g->HasSecondary(candidate)) {
      elections_rerun_++;
      Failover(pid, dead);
      return;
    }
    if (g->IsRecovering(candidate)) {
      // The winner is still catching up. If a caught-up copy appeared while
      // the election was syncing, re-run — a stale promotion must never win
      // over a complete log. Otherwise this is the last resort: promote the
      // stale copy and surface it instead of passing silently.
      bool caught_up_exists = false;
      for (const ReplicaInfo& sec : g->secondaries()) {
        if (sec.delete_flag || down_[sec.node] || sec.recovering) continue;
        caught_up_exists = true;
        break;
      }
      if (caught_up_exists) {
        elections_rerun_++;
        Failover(pid, dead);
        return;
      }
      stale_elections_++;
      g->SetRecovering(candidate, false);
    }
    if (RecoveryLog* log = cluster_->recovery_log()) {
      log->NoteApplied(candidate, pid, g->primary_lsn());
    }
    g->Promote(candidate);
    g->RemoveSecondary(dead);  // the old primary's copy died with the node
    failovers_completed_++;
    cluster_->remaster().EndReconfig(pid, token);
    ResumeParkedCatchUps(pid);
  });
}

void FailureInjector::MarkUnavailable(PartitionId pid) {
  ReplicaGroup* group = cluster_->router().mutable_group(pid);
  // No live copy: the partition is unavailable until recovery. Taking a
  // fresh reconfiguration generation invalidates any in-flight migration /
  // remaster completion so it cannot unblock the partition underneath us.
  group->BeginReconfig();
  if (std::find(unavailable_.begin(), unavailable_.end(), pid) ==
      unavailable_.end()) {
    unavailable_.push_back(pid);
  }
}

void FailureInjector::RecoverNode(NodeId node) {
  if (!down_[node]) return;
  down_[node] = false;
  cluster_->router().SetNodeUp(node, true);
  RecoveryLog* log = cluster_->recovery_log();
  const uint64_t generation = crash_generation_[node];

  // Unavailable partitions whose only copy was on the recovered node resume
  // on that copy — there is nothing better to elect. With a recovery log
  // this is a last-resort election of a possibly stale durable prefix: when
  // the prefix is short of the group's LSN, count it instead of resuming
  // silently. (Without a log the copy is assumed to survive the restart
  // intact, as before.)
  std::vector<PartitionId> still_unavailable;
  for (PartitionId pid : unavailable_) {
    ReplicaGroup* group = cluster_->router().mutable_group(pid);
    if (group->primary() == node) {
      if (log != nullptr) {
        auto it = crash_image_[node].find(pid);
        Lsn durable = it != crash_image_[node].end() ? it->second : 0;
        if (durable < group->primary_lsn()) stale_elections_++;
      }
      // MarkUnavailable took the current generation; nothing supersedes it
      // while the partition has no live copy.
      cluster_->remaster().EndReconfig(pid, group->reconfig_generation());
      ResumeParkedCatchUps(pid);
    } else {
      still_unavailable.push_back(pid);
    }
  }
  unavailable_ = std::move(still_unavailable);

  // Replay: re-register every replica from the crash image at its durable
  // LSN, in recovering state, and start streaming the missing suffix from
  // the live primary.
  int replayed = 0;
  if (log != nullptr) {
    for (const auto& [pid, durable] : crash_image_[node]) {
      ReplicaGroup* group = cluster_->router().mutable_group(pid);
      // Partitions this node still nominally masters were either resumed
      // above (unavailable) or belong to an in-flight failover that will
      // drop this node's copy when it completes — the replica is forfeit.
      if (group->primary() == node) continue;
      if (group->HasReplica(node)) continue;  // already re-provisioned
      Lsn base = std::min<Lsn>(durable, group->primary_lsn());
      group->AddSecondary(node, base);
      group->SetRecovering(node, true);
      active_catch_up_[CatchUpKey(node, pid)] =
          InFlightCatchUp{base, base, cluster_->sim()->Now()};
      replayed++;
    }
    crash_image_[node].clear();
  }
  if (replayed > 0) {
    recoveries_replayed_++;
    recovery_started_[node] = cluster_->sim()->Now();
    recovery_partitions_[node] = replayed;
    catch_ups_in_flight_[node] = replayed;
    // Kick off the streams only after every replica is registered, in
    // partition order: a step may complete synchronously (zero lag) and
    // settle, which must find the node's whole count in flight.
    for (PartitionId pid = 0; pid < cluster_->num_partitions(); ++pid) {
      if (active_catch_up_.count(CatchUpKey(node, pid)) > 0) {
        CatchUpStep(node, pid, generation);
      }
    }
  }
}

void FailureInjector::CatchUpStep(NodeId node, PartitionId pid,
                                  uint64_t generation) {
  const uint64_t key = CatchUpKey(node, pid);
  // A newer crash of this node abandoned the recovery this step belongs to
  // (its bookkeeping was reset at FailNode); just drop the stale state.
  if (generation != crash_generation_[node] || down_[node]) {
    active_catch_up_.erase(key);
    return;
  }
  ReplicaGroup* group = cluster_->router().mutable_group(pid);
  if (!group->HasSecondary(node) || !group->IsRecovering(node)) {
    // Evicted, or promoted by a last-resort election: the catch-up stream
    // no longer owns this replica.
    active_catch_up_.erase(key);
    CatchUpSettled(node);
    return;
  }
  Lsn applied = group->AppliedLsnOf(node);
  if (applied >= group->primary_lsn()) {
    FinishCatchUp(node, pid);
    return;
  }
  NodeId primary = group->primary();
  if (down_[primary]) {
    // No live primary to stream from: park until the failover completes or
    // the primary's node recovers.
    parked_catch_up_[pid].push_back({node, generation});
    return;
  }
  int batch = cluster_->recovery_log()->config().catch_up_batch;
  Lsn upto = std::min<Lsn>(applied + static_cast<Lsn>(batch),
                           group->primary_lsn());
  active_catch_up_[key].shipped_to = upto;
  cluster_->replication().ShipRange(pid, node, applied, upto,
                                    [this, node, pid, generation]() {
                                      CatchUpStep(node, pid, generation);
                                    });
}

void FailureInjector::FinishCatchUp(NodeId node, PartitionId pid) {
  const uint64_t key = CatchUpKey(node, pid);
  ReplicaGroup* group = cluster_->router().mutable_group(pid);
  const InFlightCatchUp& st = active_catch_up_[key];
  Lsn applied = group->AppliedLsnOf(node);
  // Replay invariant: while recovering, the replica's applied LSN may only
  // advance through the shipped range (epoch shipping skips it).
  if (applied > st.shipped_to) {
    recovery_violations_.push_back(
        "partition " + std::to_string(pid) + ": recovering replica on node " +
        std::to_string(node) + " applied_lsn " + std::to_string(applied) +
        " overran shipped range end " + std::to_string(st.shipped_to));
  }
  catch_ups_.push_back(CatchUpRecord{node, pid, st.started,
                                     cluster_->sim()->Now(),
                                     st.shipped_to - st.replay_base});
  group->SetRecovering(node, false);
  active_catch_up_.erase(key);
  CatchUpSettled(node);
}

void FailureInjector::CatchUpSettled(NodeId node) {
  if (catch_ups_in_flight_[node] <= 0) return;
  if (--catch_ups_in_flight_[node] == 0) {
    recoveries_.push_back(RecoveryRecord{node, recovery_started_[node],
                                         cluster_->sim()->Now(),
                                         recovery_partitions_[node]});
    recovery_started_[node] = -1;
    recovery_partitions_[node] = 0;
  }
}

void FailureInjector::ResumeParkedCatchUps(PartitionId pid) {
  auto it = parked_catch_up_.find(pid);
  if (it == parked_catch_up_.end()) return;
  std::vector<std::pair<NodeId, uint64_t>> parked = std::move(it->second);
  parked_catch_up_.erase(it);
  for (const auto& [node, generation] : parked) {
    CatchUpStep(node, pid, generation);
  }
}

}  // namespace lion
