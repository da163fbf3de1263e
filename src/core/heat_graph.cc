#include "core/heat_graph.h"

#include <algorithm>

namespace lion {

namespace {
const std::unordered_map<PartitionId, double> kNoNeighbors;
}  // namespace

void HeatGraph::AddAccess(const PartitionId* parts, size_t n, double weight) {
  for (size_t i = 0; i < n; ++i) {
    vertices_[parts[i]] += weight;
    total_vertex_weight_ += weight;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      PartitionId u = parts[i], v = parts[j];
      if (u == v) continue;
      auto& uv = adj_[u][v];
      if (uv == 0.0) edge_count_++;
      uv += weight;
      adj_[v][u] += weight;
      total_edge_weight_ += weight;
    }
  }
}

double HeatGraph::VertexWeight(PartitionId v) const {
  auto it = vertices_.find(v);
  return it == vertices_.end() ? 0.0 : it->second;
}

double HeatGraph::EdgeWeight(PartitionId u, PartitionId v) const {
  auto it = adj_.find(u);
  if (it == adj_.end()) return 0.0;
  auto jt = it->second.find(v);
  return jt == it->second.end() ? 0.0 : jt->second;
}

const std::unordered_map<PartitionId, double>& HeatGraph::Neighbors(
    PartitionId v) const {
  auto it = adj_.find(v);
  return it == adj_.end() ? kNoNeighbors : it->second;
}

std::vector<PartitionId> HeatGraph::VerticesByHeat() const {
  std::vector<PartitionId> out;
  out.reserve(vertices_.size());
  for (const auto& [pid, w] : vertices_) out.push_back(pid);
  std::sort(out.begin(), out.end(), [this](PartitionId a, PartitionId b) {
    double wa = VertexWeight(a), wb = VertexWeight(b);
    if (wa != wb) return wa > wb;
    return a < b;  // deterministic tie-break
  });
  return out;
}

void HeatGraph::Clear() {
  vertices_.clear();
  adj_.clear();
  edge_count_ = 0;
  total_vertex_weight_ = 0.0;
  total_edge_weight_ = 0.0;
}

}  // namespace lion
