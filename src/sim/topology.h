// Region-aware WAN topology: node -> region assignment plus a per-region-pair
// latency table derived from NetworkConfig.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace lion {

struct NetworkConfig;

/// Immutable routing tables built once from a NetworkConfig: which region
/// each node lives in, and the one-way base latency between every region
/// pair (every pair shares the one link bandwidth). The flat default
/// (regions = 1, no matrix) reproduces the classic single-datacenter model
/// exactly: every remote pair sees `one_way_latency`, bit for bit.
///
/// Geometry is declared in the config schema (cluster.net.regions,
/// cluster.net.region_latency_ms, ...), so sweep grids can vary geography
/// like any other axis. Cross-field consistency (matrix dimensions, region
/// indices in range) cannot be checked per schema field — Validate() covers
/// it and is called from ExperimentBuilder::Validate.
class Topology {
 public:
  /// Builds the tables. `net` must have passed Validate() for the same
  /// `num_nodes` (ExperimentBuilder guarantees this; tests call it
  /// directly).
  Topology(const NetworkConfig& net, int num_nodes);

  /// Cross-field validation: node_regions length/range and the latency
  /// matrix dimensions against `regions`. `path` prefixes error
  /// messages with the config location ("cluster.net" in experiment
  /// configs).
  static Status Validate(const NetworkConfig& net, int num_nodes,
                         const std::string& path = "cluster.net");

  /// Number of nodes the topology was built for.
  int num_nodes() const { return static_cast<int>(node_region_.size()); }

  /// Region of `node`. Nodes beyond the cluster size (never produced by a
  /// validated config) fall back to region 0.
  int region_of(NodeId node) const {
    return node >= 0 && static_cast<size_t>(node) < node_region_.size()
               ? node_region_[static_cast<size_t>(node)]
               : 0;
  }

  /// One-way base latency between two distinct nodes (loopback cost is the
  /// network's local_latency; callers handle from == to before asking).
  SimTime base_latency(NodeId from, NodeId to) const {
    return latency_[Index(region_of(from), region_of(to))];
  }

  /// Largest one-way latency between two distinct regions; 0 with a single
  /// region. Feeds the Didona et al. lower-bound reference curve (one WAN
  /// round trip = 2x this).
  SimTime max_cross_region_latency() const;

 private:
  size_t Index(int from_region, int to_region) const {
    return static_cast<size_t>(from_region) * static_cast<size_t>(regions_) +
           static_cast<size_t>(to_region);
  }

  int regions_;
  std::vector<int> node_region_;  // node -> region
  std::vector<SimTime> latency_;  // regions x regions, row-major, one-way
};

}  // namespace lion
