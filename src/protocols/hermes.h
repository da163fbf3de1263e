// Hermes baseline: deterministic execution + prescient migration.
#pragma once

#include <memory>
#include <vector>

#include "protocols/batch_protocol.h"
#include "sim/worker_pool.h"

namespace lion {

/// Hermes collects transactions in batches, reorders each batch so that
/// transactions touching the same partitions are adjacent (prescient
/// routing), migrates partitions on demand so each transaction becomes
/// single-home, and then executes deterministically under a single-threaded
/// per-node lock manager. Migration reuse within a batch tames ping-pong,
/// but every workload shift still pays blocking migrations — the jitter of
/// Figs. 8b/10.
class HermesProtocol : public BatchProtocol {
 public:
  HermesProtocol(Cluster* cluster, MetricsCollector* metrics);

  std::string name() const override { return "Hermes"; }

  uint64_t migrations_requested() const { return migrations_requested_; }

 protected:
  void ExecuteBatch(std::vector<Item> batch) override;

 private:
  struct Pull;

  /// Pulls the mastership of `parts` (the transaction's partitions) that
  /// lie elsewhere to the node holding most of them, then runs there.
  void MigrateThenRun(Item item, std::vector<PartitionId> parts);
  void MigrateNext(std::unique_ptr<Pull> pull, size_t index);
  void RunLocal(Item item, NodeId dst);

  std::vector<std::unique_ptr<WorkerPool>> lock_managers_;
  uint64_t migrations_requested_ = 0;
};

}  // namespace lion
