#include "replication/router_table.h"

#include <algorithm>
#include <cassert>

namespace lion {

RouterTable::RouterTable(int num_nodes, int num_partitions)
    : num_nodes_(num_nodes), node_up_(num_nodes, true), max_freq_(0.0) {
  assert(num_nodes > 0 && num_partitions > 0);
  groups_.reserve(num_partitions);
  for (PartitionId p = 0; p < num_partitions; ++p) {
    groups_.emplace_back(p, p % num_nodes);
  }
  freq_.assign(num_partitions, 0.0);
}

void RouterTable::InitRoundRobin(int replicas) {
  assert(replicas >= 1);
  for (auto& g : groups_) {
    PartitionId p = g.partition();
    for (int r = 1; r < replicas && r < num_nodes_; ++r) {
      g.AddSecondary((p + r) % num_nodes_, 0);
    }
  }
}

NodeId RouterTable::MostPrimariesNode(const std::vector<PartitionId>& parts,
                                      int* hosted) const {
  // Per-node tallies on the stack; only unusually large clusters spill.
  constexpr int kStackNodes = 64;
  int stack_count[kStackNodes] = {};
  std::vector<int> heap_count;
  int* count = stack_count;
  if (num_nodes_ > kStackNodes) {
    heap_count.assign(num_nodes_, 0);
    count = heap_count.data();
  }
  for (PartitionId pid : parts) count[PrimaryOf(pid)]++;
  NodeId best = 0;
  for (NodeId n = 1; n < num_nodes_; ++n) {
    if (count[n] > count[best]) best = n;
  }
  if (hosted != nullptr) *hosted = count[best];
  return best;
}

void RouterTable::RecordAccess(PartitionId pid) {
  freq_[pid] += 1.0;
  max_freq_ = std::max(max_freq_, freq_[pid]);
}

double RouterTable::NormalizedFrequency(PartitionId pid) const {
  if (max_freq_ <= 0.0) return 0.0;
  return freq_[pid] / max_freq_;
}

void RouterTable::DecayFrequencies(double keep_fraction) {
  max_freq_ = 0.0;
  for (double& f : freq_) {
    f *= keep_fraction;
    max_freq_ = std::max(max_freq_, f);
  }
}

std::vector<PartitionId> RouterTable::PrimariesOn(NodeId node) const {
  std::vector<PartitionId> out;
  for (const auto& g : groups_) {
    if (g.primary() == node) out.push_back(g.partition());
  }
  return out;
}

int RouterTable::TotalLiveReplicas() const {
  int total = 0;
  for (const auto& g : groups_) total += g.LiveReplicaCount();
  return total;
}

}  // namespace lion
