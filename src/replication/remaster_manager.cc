#include "replication/remaster_manager.h"

#include <utility>

namespace lion {

RemasterManager::RemasterManager(Simulator* sim, Network* network,
                                 RouterTable* table,
                                 const ClusterConfig& config)
    : sim_(sim),
      network_(network),
      table_(table),
      config_(config),
      remasters_completed_(0),
      remasters_failed_(0),
      total_remaster_time_(0) {}

bool RemasterManager::IsBlocked(PartitionId pid) const {
  return table_->group(pid).reconfig_in_progress();
}

void RemasterManager::Remaster(PartitionId pid, NodeId target,
                               MoveFn<void(bool)> done) {
  ReplicaGroup* group = table_->mutable_group(pid);
  if (group->primary() == target) {
    done(true);
    return;
  }
  if (group->reconfig_in_progress() || !group->HasSecondary(target) ||
      !table_->IsNodeUp(target) || group->IsRecovering(target)) {
    // A recovering target is rejected outright: its replica is still behind
    // the durable log it replayed and must not take mastership until the
    // catch-up stream completes.
    remasters_failed_++;
    done(false);
    return;
  }

  // Block the partition: only one primary may serve at any time (split-brain
  // avoidance, Sec. III). New operations queue via WaitUntilAvailable. The
  // generation token lets a failover preempt this remaster: its completion
  // then backs off instead of unblocking a partition it no longer owns.
  const uint64_t token = group->BeginReconfig();

  Lsn lag = group->LagOf(target);
  SimTime sync_time = config_.remaster_base_delay +
                      static_cast<SimTime>(lag) * config_.remaster_per_entry;
  NodeId old_primary = group->primary();

  SimTime started = sim_->Now();
  // Control message to the candidate, then log sync + election time.
  network_->Send(old_primary, target, MessageSizes::kRemasterCtl,
                 [this, pid, target, sync_time, started, token,
                  done = std::move(done)]() mutable {
                   sim_->Schedule(sync_time, [this, pid, target, started, token,
                                              done = std::move(done)]() mutable {
                     ReplicaGroup* g = table_->mutable_group(pid);
                     if (token != g->reconfig_generation()) {
                       // A failover preempted this remaster; it owns the
                       // partition's block now.
                       remasters_failed_++;
                       done(false);
                       return;
                     }
                     if (!table_->IsNodeUp(target) ||
                         !g->HasSecondary(target) ||
                         g->IsRecovering(target)) {
                       // The candidate died during the sync — or crashed and
                       // came back mid-recovery: abort cleanly and unblock
                       // (the old primary still serves).
                       remasters_failed_++;
                       EndReconfig(pid, token);
                       done(false);
                       return;
                     }
                     g->Promote(target);
                     total_remaster_time_ += sim_->Now() - started;
                     remasters_completed_++;
                     EndReconfig(pid, token);
                     done(true);
                   });
                 });
}

bool RemasterManager::EndReconfig(PartitionId pid, uint64_t token) {
  if (!table_->mutable_group(pid)->EndReconfig(token)) return false;
  ReleaseWaiters(pid);
  return true;
}

void RemasterManager::ReleaseWaiters(PartitionId pid) {
  auto it = waiters_.find(pid);
  if (it == waiters_.end()) return;
  std::deque<MoveFn<void()>> pending;
  pending.swap(it->second);
  waiters_.erase(it);
  for (auto& fn : pending) fn();
}

}  // namespace lion
