// Network timing and byte-accounting model for the simulated cluster.
#pragma once

#include <cstdint>
#include <vector>

#include "common/move_fn.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace lion {

/// Network characteristics. The link model is fixed and approximates the
/// paper's testbed: ~937 Mbit/s links with ~100 us small-message round trips
/// in a single region. The region fields widen the model to a WAN: nodes are
/// assigned to regions and each region pair gets its own one-way latency
/// (see sim/topology.h); every pair shares the one link bandwidth. The
/// defaults keep one region, which reproduces the flat model exactly.
struct NetworkConfig {
  /// One-way propagation + kernel/stack latency for any intra-region remote
  /// message.
  static constexpr SimTime one_way_latency = 25 * kMicrosecond;
  /// Link bandwidth in bytes per second (937 Mbit/s ~ 117 MB/s).
  static constexpr double bandwidth_bytes_per_sec = 117.0 * 1024 * 1024;
  /// Cost of a loopback (same node) message.
  static constexpr SimTime local_latency = 1 * kMicrosecond;
  /// One-way latency between distinct regions when no matrix is declared
  /// (~continental WAN hop).
  static constexpr SimTime cross_region_latency = 30 * kMillisecond;

  // --- geo-replication topology (sim/topology.h) ---------------------------
  /// Number of geographic regions (1 = the classic flat model).
  int regions = 1;
  /// Region of each node; empty assigns contiguous equal blocks.
  std::vector<int> node_regions;
  /// Flattened row-major regions x regions one-way latency matrix in
  /// milliseconds; empty derives it from one_way_latency (diagonal) and
  /// cross_region_latency (off-diagonal).
  std::vector<double> region_latency_ms;
  /// Symmetric multiplicative delivery jitter: each sent message's delay is
  /// scaled by a deterministic seeded draw from [1 - jitter_pct,
  /// 1 + jitter_pct). 0 disables jitter (and draws nothing).
  double jitter_pct = 0.0;
};

/// Delivers messages between simulated nodes with latency + serialization
/// delay and tracks bytes/messages, both in total and per time window.
class Network {
 public:
  /// `num_nodes` sizes the topology's node -> region table; the default
  /// suits single-region unit tests where every node maps to region 0.
  Network(Simulator* sim, NetworkConfig config, int num_nodes = 1);

  /// Sends `bytes` from `from` to `to`; `on_delivery` runs at arrival time.
  /// Loopback messages cost `local_latency` and are not counted as network
  /// traffic (matching how the paper reports network cost per transaction).
  /// The callback is a move-only MoveFn: a small caller lambda goes straight
  /// into the delivery event's inline storage with no std::function
  /// conversion (and no allocation) on this per-message path.
  ///
  /// With jitter_pct > 0 the delivery delay (never TransferDelay, which
  /// cost models need deterministic) is scaled by a draw from the dedicated
  /// jitter stream — never from the experiment RNG, so enabling jitter
  /// cannot perturb workload/protocol random sequences (same discipline as
  /// the simulator's calendar-geometry stream).
  void Send(NodeId from, NodeId to, uint64_t bytes,
            Simulator::EventFn on_delivery);

  /// Computes the jitter-free delivery delay without sending: region-pair
  /// base latency plus serialization at the link bandwidth (used by cost
  /// models).
  SimTime TransferDelay(NodeId from, NodeId to, uint64_t bytes) const;

  // --- network partitions (chaos schedules) --------------------------------
  /// Cuts the network between `island` and every other node: messages
  /// crossing the cut are dropped from the link and parked (counted in
  /// messages_dropped) instead of delivered. Intra-island and mainland
  /// traffic is unaffected. A second call replaces the island.
  void StartPartition(const std::vector<NodeId>& island);

  /// Heals the partition deterministically: parked messages are
  /// retransmitted in their original send order, with delays computed from
  /// the heal time.
  void HealPartition();

  /// False while a partition is active and `a`/`b` sit on opposite sides.
  bool Reachable(NodeId a, NodeId b) const {
    if (!partition_active_ || a == b) return true;
    return Side(a) == Side(b);
  }

  /// Messages dropped at an active partition cut (each is retransmitted at
  /// heal time, so this counts disruptions, not permanent losses).
  uint64_t messages_dropped() const { return messages_dropped_; }

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_messages() const { return total_messages_; }

  /// Bytes sent within each completed stats window since construction.
  const std::vector<uint64_t>& window_bytes() const { return window_bytes_; }

 private:
  void RollWindows();

  bool Side(NodeId n) const {
    return n >= 0 && static_cast<size_t>(n) < island_.size() &&
           island_[static_cast<size_t>(n)];
  }

  struct ParkedMessage {
    NodeId from;
    NodeId to;
    uint64_t bytes;
    Simulator::EventFn on_delivery;
  };

  Simulator* sim_;
  NetworkConfig config_;
  Topology topology_;
  // Dedicated jitter stream, derived from the experiment seed with a fixed
  // stream constant so it never aliases the experiment RNG sequence.
  Rng jitter_rng_;
  uint64_t total_bytes_;
  uint64_t total_messages_;
  std::vector<uint64_t> window_bytes_;
  bool partition_active_ = false;
  std::vector<bool> island_;  // node -> side of the cut
  std::vector<ParkedMessage> parked_;
  uint64_t messages_dropped_ = 0;
};

/// Standard message-size model shared by all protocols so byte accounting is
/// apples-to-apples (header + per-operation payload).
struct MessageSizes {
  static constexpr uint64_t kHeader = 64;
  static constexpr uint64_t kOpRequest = 48;    // key + metadata
  static constexpr uint64_t kOpResponse = 16;   // value + status
  static constexpr uint64_t kPrepare = 96;      // vote + log record header
  static constexpr uint64_t kCommitDecision = 32;
  static constexpr uint64_t kLogEntry = 64;     // replicated write record
  static constexpr uint64_t kRemasterCtl = 128; // remaster control message
  static constexpr uint64_t kPlanEntry = 24;    // plan action descriptor
};

}  // namespace lion
