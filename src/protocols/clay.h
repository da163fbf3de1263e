// Clay baseline: load-triggered online repartitioning (Sec. II-B1).
#pragma once

#include <vector>

#include "protocols/protocol.h"
#include "txn/two_phase_engine.h"

namespace lion {

struct ClayConfig {
  /// How often Clay checks node load.
  SimTime monitor_interval = 500 * kMillisecond;
  /// Partitions moved per repartitioning round (the migrating "clump").
  int clump_budget = 3;
};

/// Clay monitors per-node load and, upon detecting imbalance, migrates a
/// clump of the overloaded node's hottest primaries to the least-loaded
/// node. (Clay proper extends the clump with co-accessed partners; this
/// baseline does not.) Per the paper's evaluation
/// setup, movement uses asynchronous replication + remastering like Lion;
/// the copy evicts a replica when it exceeds cluster.max_replicas.
/// Transactions themselves always run through standard OCC+2PC: Clay only
/// repartitions for load balance, so it cannot eliminate all distributed
/// transactions (Sec. VI-C1).
class ClayProtocol : public Protocol {
 public:
  ClayProtocol(Cluster* cluster, MetricsCollector* metrics,
               ClayConfig config = ClayConfig{});

  std::string name() const override { return "Clay"; }
  void Start() override;
  void Stop() override;
  void SubmitTxn(TxnPtr txn, TxnDoneFn done) override;

  uint64_t repartitions() const { return repartitions_; }

 private:
  void Monitor();

  TwoPhaseEngine engine_;
  ClayConfig config_;
  std::vector<SimTime> prev_busy_;
  std::vector<PartitionId> parts_;  // SubmitTxn's partition-list buffer
  uint64_t repartitions_ = 0;
  PeriodicTimer monitor_timer_;
};

}  // namespace lion
