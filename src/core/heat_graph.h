// The heat graph G(V, E) of the workload analyzer (Sec. IV-A).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace lion {

/// Undirected weighted graph over partitions: vertex weights accumulate
/// per-partition access frequency, edge weights accumulate co-access counts
/// between partition pairs touched by the same transaction.
class HeatGraph {
 public:
  /// Adds one transaction's partition set, the `n` partitions at `parts`,
  /// with the given weight: every partition's vertex weight grows by
  /// `weight`, and every pair gains `weight` of edge weight. The set must be
  /// deduplicated.
  void AddAccess(const PartitionId* parts, size_t n, double weight);

  void AddAccess(const std::vector<PartitionId>& parts, double weight = 1.0) {
    AddAccess(parts.data(), parts.size(), weight);
  }

  double VertexWeight(PartitionId v) const;
  double EdgeWeight(PartitionId u, PartitionId v) const;

  /// Neighbors of `v` with their raw edge weights.
  const std::unordered_map<PartitionId, double>& Neighbors(PartitionId v) const;

  /// Vertices ordered hottest-first (the paper's hVertices priority queue).
  std::vector<PartitionId> VerticesByHeat() const;

  size_t num_vertices() const { return vertices_.size(); }
  size_t num_edges() const { return edge_count_; }
  double total_vertex_weight() const { return total_vertex_weight_; }

  /// Mean weight over existing edges (0 if the graph has no edges).
  double MeanEdgeWeight() const {
    return edge_count_ == 0 ? 0.0
                            : total_edge_weight_ / static_cast<double>(edge_count_);
  }

  void Clear();

 private:
  std::unordered_map<PartitionId, double> vertices_;
  std::unordered_map<PartitionId, std::unordered_map<PartitionId, double>> adj_;
  size_t edge_count_ = 0;
  double total_vertex_weight_ = 0.0;
  double total_edge_weight_ = 0.0;
};

}  // namespace lion
