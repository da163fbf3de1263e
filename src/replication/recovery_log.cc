#include "replication/recovery_log.h"

#include <algorithm>

namespace lion {

RecoveryLog::RecoveryLog(Simulator* sim, const RecoveryConfig& config,
                         int num_nodes, int num_partitions)
    : sim_(sim),
      config_(config),
      snapshot_timer_(sim, [this](SimTime) { SnapshotAll(); }),
      nodes_(static_cast<size_t>(num_nodes)),
      history_(static_cast<size_t>(num_partitions)) {
  for (auto& parts : nodes_) {
    parts.resize(static_cast<size_t>(num_partitions));
  }
}

void RecoveryLog::Start() {
  if (config_.snapshot_interval > 0) {
    snapshot_timer_.Start(config_.snapshot_interval);
  }
}

void RecoveryLog::PushMark(NodeId node, PartitionId pid, Lsn lsn) {
  NodePartition& np = nodes_[static_cast<size_t>(node)][static_cast<size_t>(pid)];
  SimTime now = sim_->Now();
  if (!np.marks.empty() && np.marks.back().at == now) {
    np.marks.back().lsn = std::max(np.marks.back().lsn, lsn);
    return;
  }
  np.marks.push_back(Mark{lsn, now});
}

void RecoveryLog::AppendCommit(NodeId node, PartitionId pid, Key key, Lsn lsn) {
  history_[static_cast<size_t>(pid)].suffix.push_back(
      Entry{node, key, lsn, sim_->Now()});
  entries_appended_++;
  PushMark(node, pid, lsn);
}

void RecoveryLog::NoteApplied(NodeId node, PartitionId pid, Lsn lsn) {
  PushMark(node, pid, lsn);
}

Lsn RecoveryLog::DurableLsn(NodeId node, PartitionId pid, bool dirty) const {
  const NodePartition& np =
      nodes_[static_cast<size_t>(node)][static_cast<size_t>(pid)];
  SimTime horizon = dirty ? sim_->Now() - config_.durability_lag : sim_->Now();
  Lsn durable = np.snapshot_lsn;
  for (const Mark& m : np.marks) {
    if (m.at > horizon) break;  // marks are time-ordered
    durable = std::max(durable, m.lsn);
  }
  return durable;
}

void RecoveryLog::Crash(NodeId node, bool dirty) {
  if (!dirty) return;  // the flush won the race: the whole log survives
  SimTime horizon = sim_->Now() - config_.durability_lag;
  for (NodePartition& np : nodes_[static_cast<size_t>(node)]) {
    np.marks.erase(std::remove_if(np.marks.begin(), np.marks.end(),
                                  [horizon](const Mark& m) {
                                    return m.at > horizon;
                                  }),
                   np.marks.end());
  }
  for (PartitionHistory& h : history_) {
    auto lost_begin = std::stable_partition(
        h.suffix.begin(), h.suffix.end(), [node, horizon](const Entry& e) {
          return e.node != node || e.at <= horizon;
        });
    for (auto it = lost_begin; it != h.suffix.end(); ++it) {
      h.lost_entries++;
      h.lost_writes[it->key]++;
    }
    h.suffix.erase(lost_begin, h.suffix.end());
  }
}

void RecoveryLog::SnapshotNode(NodeId node) {
  for (NodePartition& np : nodes_[static_cast<size_t>(node)]) {
    if (!np.marks.empty()) {
      np.snapshot_lsn = std::max(np.snapshot_lsn, np.marks.back().lsn);
      np.marks.clear();
    }
  }
  for (PartitionHistory& h : history_) {
    auto keep_end = std::stable_partition(
        h.suffix.begin(), h.suffix.end(),
        [node](const Entry& e) { return e.node != node; });
    for (auto it = keep_end; it != h.suffix.end(); ++it) {
      h.snapshot_entries++;
      h.snapshot_writes[it->key]++;
    }
    h.suffix.erase(keep_end, h.suffix.end());
  }
  snapshots_taken_++;
}

void RecoveryLog::SnapshotAll() {
  for (NodeId n = 0; n < static_cast<NodeId>(nodes_.size()); ++n) {
    SnapshotNode(n);
  }
}

uint64_t RecoveryLog::total_lost_entries() const {
  uint64_t total = 0;
  for (const PartitionHistory& h : history_) total += h.lost_entries;
  return total;
}

uint64_t RecoveryLog::DurableEntries(PartitionId pid) const {
  const PartitionHistory& h = history_[static_cast<size_t>(pid)];
  return h.snapshot_entries + h.suffix.size();
}

uint64_t RecoveryLog::LostEntries(PartitionId pid) const {
  return history_[static_cast<size_t>(pid)].lost_entries;
}

std::unordered_map<Key, uint64_t> RecoveryLog::ReconstructWrites(
    PartitionId pid) const {
  const PartitionHistory& h = history_[static_cast<size_t>(pid)];
  std::unordered_map<Key, uint64_t> counts = h.snapshot_writes;
  for (const auto& kv : h.lost_writes) counts[kv.first] += kv.second;
  for (const Entry& e : h.suffix) counts[e.key]++;
  return counts;
}

}  // namespace lion
