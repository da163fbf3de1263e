#include "replication/replication_manager.h"

#include <cassert>
#include <memory>
#include <utility>

#include "replication/recovery_log.h"

namespace lion {

namespace {
uint64_t CopyKey(PartitionId pid, NodeId node) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(pid)) << 32) |
         static_cast<uint32_t>(node);
}
}  // namespace

ReplicationManager::ReplicationManager(Simulator* sim, Network* network,
                                       RouterTable* table,
                                       std::vector<PartitionStore*> stores,
                                       const ClusterConfig& config)
    : sim_(sim),
      network_(network),
      table_(table),
      stores_(std::move(stores)),
      config_(config),
      epoch_started_at_(0),
      epoch_timer_(sim, [this](SimTime) { CloseEpochNow(); }),
      total_entries_shipped_(0) {
  pending_count_.resize(stores_.size());
  if (config_.materialize_secondaries) pending_.resize(stores_.size());
}

void ReplicationManager::Start() {
  if (epoch_timer_.running()) return;
  epoch_started_at_ = sim_->Now();
  epoch_timer_.Start(config_.epoch_interval);
}

void ReplicationManager::Append(PartitionId pid, Key key, Version version) {
  pending_count_[pid]++;
  if (config_.materialize_secondaries) {
    pending_[pid].push_back(LogEntry{key, version});
  }
  ReplicaGroup* group = table_->mutable_group(pid);
  group->Advance(1);
  if (recovery_log_ != nullptr) {
    recovery_log_->AppendCommit(group->primary(), pid, key,
                                group->primary_lsn());
  }
}

void ReplicationManager::OnEpochEnd(MoveFn<void()> fn) {
  epoch_waiters_.push_back(std::move(fn));
  // Keep the simulation alive until the boundary that releases this waiter:
  // the ticker itself is a weak event and would not, by itself, be run by
  // RunUntilIdle. One empty strong event per boundary is enough.
  const SimTime boundary = NextEpochEnd();
  if (keepalive_at_ == boundary) return;
  keepalive_at_ = boundary;
  sim_->Schedule(boundary - sim_->Now(), []() {});
}

SimTime ReplicationManager::NextEpochEnd() const {
  return epoch_started_at_ + config_.epoch_interval;
}

void ReplicationManager::CloseEpochNow() {
  // Ship all pending logs and release waiters, then restart the epoch timer
  // from now.
  epoch_started_at_ = sim_->Now();
  if (shipping_paused_ == 0) {
    for (size_t pid = 0; pid < pending_count_.size(); ++pid) {
      if (pending_count_[pid] != 0) {
        ShipPartition(static_cast<PartitionId>(pid));
      }
    }
  }
  // Waiters may register for the next epoch while these run.
  assert(firing_waiters_.empty() && "CloseEpochNow re-entered from a waiter");
  firing_waiters_.swap(epoch_waiters_);
  for (auto& fn : firing_waiters_) fn();
  firing_waiters_.clear();
}

void ReplicationManager::ShipPartition(PartitionId pid) {
  ReplicaGroup* group = table_->mutable_group(pid);
  const uint64_t count = pending_count_[pid];
  pending_count_[pid] = 0;
  total_entries_shipped_ += count;
  Lsn target_lsn = group->primary_lsn();
  NodeId primary = group->primary();
  uint64_t bytes = MessageSizes::kHeader + count * MessageSizes::kLogEntry;
  // Only materialized secondaries read the entries themselves. The buffer is
  // cleared in place so it keeps its capacity from epoch to epoch.
  std::shared_ptr<const std::vector<LogEntry>> payload;
  if (config_.materialize_secondaries) {
    payload = std::make_shared<const std::vector<LogEntry>>(pending_[pid]);
    pending_[pid].clear();
  }

  for (const ReplicaInfo& sec : group->secondaries()) {
    if (sec.delete_flag) continue;  // flagged replicas stop receiving logs
    // Recovering replicas are owned by the catch-up stream: acking them to
    // the epoch head here would fake their durable position.
    if (sec.recovering) continue;
    NodeId dst = sec.node;
    if (payload != nullptr) {
      network_->Send(primary, dst, bytes, [this, pid, dst, target_lsn, payload]() {
        auto& copy = copies_[CopyKey(pid, dst)];
        for (const LogEntry& e : *payload) copy[e.key] = e.version;
        Ack(pid, dst, target_lsn);
      });
    } else {
      network_->Send(primary, dst, bytes, [this, pid, dst, target_lsn]() {
        Ack(pid, dst, target_lsn);
      });
    }
  }
}

void ReplicationManager::Ack(PartitionId pid, NodeId dst, Lsn lsn) {
  ReplicaGroup* group = table_->mutable_group(pid);
  group->Ack(dst, lsn);
  // Only a delivery that actually landed on a live secondary is a durable
  // mark; a batch arriving after the replica was dropped must not inflate
  // the node's durable position for a later crash image.
  if (recovery_log_ != nullptr && group->HasSecondary(dst)) {
    recovery_log_->NoteApplied(dst, pid, lsn);
  }
}

void ReplicationManager::ShipRange(PartitionId pid, NodeId dst, Lsn from,
                                   Lsn upto, MoveFn<void()> on_delivered) {
  ReplicaGroup* group = table_->mutable_group(pid);
  NodeId primary = group->primary();
  uint64_t bytes = MessageSizes::kHeader +
                   static_cast<uint64_t>(upto - from) * MessageSizes::kLogEntry;
  catch_up_entries_shipped_ += upto - from;
  network_->Send(primary, dst, bytes,
                 [this, pid, dst, upto,
                  done = std::move(on_delivered)]() mutable {
                   // The replica may have been dropped or promoted while the
                   // batch was in flight; Ack then no-ops and the injector's
                   // next step re-validates.
                   Ack(pid, dst, upto);
                   done();
                 });
}

const std::unordered_map<Key, Version>* ReplicationManager::MaterializedCopy(
    PartitionId pid, NodeId node) const {
  auto it = copies_.find(CopyKey(pid, node));
  return it == copies_.end() ? nullptr : &it->second;
}

}  // namespace lion
