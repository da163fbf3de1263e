#include "sim/topology.h"

#include <cmath>

#include "sim/network.h"

namespace lion {

namespace {

// Default node -> region assignment: contiguous blocks, node n in region
// n * regions / num_nodes (regions divide the node range as evenly as
// possible, first block largest by at most one).
int DefaultRegion(int node, int regions, int num_nodes) {
  return static_cast<int>(static_cast<int64_t>(node) * regions / num_nodes);
}

}  // namespace

Topology::Topology(const NetworkConfig& net, int num_nodes)
    : regions_(net.regions < 1 ? 1 : net.regions) {
  node_region_.resize(static_cast<size_t>(num_nodes < 1 ? 1 : num_nodes));
  for (size_t n = 0; n < node_region_.size(); ++n) {
    node_region_[n] =
        n < net.node_regions.size()
            ? net.node_regions[n]
            : DefaultRegion(static_cast<int>(n), regions_,
                            static_cast<int>(node_region_.size()));
  }

  size_t cells = static_cast<size_t>(regions_) * static_cast<size_t>(regions_);
  latency_.resize(cells);
  for (int a = 0; a < regions_; ++a) {
    for (int b = 0; b < regions_; ++b) {
      size_t i = Index(a, b);
      if (!net.region_latency_ms.empty()) {
        latency_[i] = static_cast<SimTime>(std::llround(
            net.region_latency_ms[i] * static_cast<double>(kMillisecond)));
      } else {
        // No matrix declared: intra-region pairs keep the classic LAN
        // latency, cross-region pairs the scalar WAN latency.
        latency_[i] = a == b ? NetworkConfig::one_way_latency
                             : NetworkConfig::cross_region_latency;
      }
    }
  }
}

SimTime Topology::max_cross_region_latency() const {
  SimTime max = 0;
  for (int a = 0; a < regions_; ++a) {
    for (int b = 0; b < regions_; ++b) {
      if (a != b && latency_[Index(a, b)] > max) max = latency_[Index(a, b)];
    }
  }
  return max;
}

Status Topology::Validate(const NetworkConfig& net, int num_nodes,
                          const std::string& path) {
  int regions = net.regions;
  if (regions < 1) {
    return Status::InvalidArgument(path + ".regions: " +
                                   std::to_string(regions) + " must be >= 1");
  }
  if (!net.node_regions.empty()) {
    if (static_cast<int>(net.node_regions.size()) != num_nodes) {
      return Status::InvalidArgument(
          path + ".node_regions: expected one entry per node (" +
          std::to_string(num_nodes) + "), got " +
          std::to_string(net.node_regions.size()));
    }
    for (size_t n = 0; n < net.node_regions.size(); ++n) {
      int r = net.node_regions[n];
      if (r < 0 || r >= regions) {
        return Status::InvalidArgument(
            path + ".node_regions[" + std::to_string(n) + "]: unknown region " +
            std::to_string(r) + " (regions = " + std::to_string(regions) + ")");
      }
    }
  }
  size_t cells = static_cast<size_t>(regions) * static_cast<size_t>(regions);
  if (!net.region_latency_ms.empty() && net.region_latency_ms.size() != cells) {
    return Status::InvalidArgument(
        path + ".region_latency_ms: expected " + std::to_string(cells) +
        " entries (regions^2 = " + std::to_string(regions) + "^2), got " +
        std::to_string(net.region_latency_ms.size()));
  }
  return Status::OK();
}

}  // namespace lion
