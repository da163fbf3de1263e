// All tunable parameters of the simulated cluster and its cost model.
#pragma once

#include "common/types.h"
#include "sim/network.h"

namespace lion {

/// Configuration for one simulated cluster (Sec. VI-A defaults, scaled).
struct ClusterConfig {
  // --- topology -------------------------------------------------------------
  int num_nodes = 4;
  int workers_per_node = 8;
  int partitions_per_node = 12;
  uint64_t records_per_partition = 10'000;
  /// Logical record size used for all byte accounting (YCSB: 1 KB rows).
  uint64_t record_bytes = 1000;

  // --- replication ----------------------------------------------------------
  /// Initial replicas per partition (paper: 2).
  int init_replicas = 2;
  /// Maximum replicas per partition before eviction kicks in (paper: 4).
  int max_replicas = 4;
  /// Epoch-based group commit interval (paper: 10 ms).
  SimTime epoch_interval = 10 * kMillisecond;
  /// Physically apply shipped log entries to per-replica copies; used by
  /// consistency tests (costs memory, benches leave it off).
  bool materialize_secondaries = false;

  // --- CPU cost model (per-node worker time; fixed, not configurable) -------
  /// Fixed cost of starting/finishing a transaction on its coordinator.
  static constexpr SimTime txn_setup_cost = 5 * kMicrosecond;
  /// Executing one read/write on a local primary.
  static constexpr SimTime op_local_cost = 2 * kMicrosecond;
  /// Serving one remote read/write request (charged at the serving node).
  static constexpr SimTime op_service_cost = 2 * kMicrosecond;
  /// Writing a prepare/commit log record.
  static constexpr SimTime log_write_cost = 3 * kMicrosecond;
  /// OCC validation per accessed record.
  static constexpr SimTime validation_cost_per_op = 500;  // ns
  /// Handling any control message (charged at the receiving node).
  static constexpr SimTime message_handling_cost = 1 * kMicrosecond;

  // --- remastering / migration ----------------------------------------------
  /// Base remastering duration (paper default 3000 us, swept in Fig. 13b).
  SimTime remaster_base_delay = 3000 * kMicrosecond;
  /// Additional remastering time per lagging log entry (fixed).
  static constexpr SimTime remaster_per_entry = 100;  // ns

  // --- network ---------------------------------------------------------------
  NetworkConfig net;

  int total_partitions() const { return num_nodes * partitions_per_node; }
};

}  // namespace lion
