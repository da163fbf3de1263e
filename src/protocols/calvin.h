// Calvin baseline: deterministic execution with per-node lock managers.
#pragma once

#include <memory>
#include <vector>

#include "protocols/batch_protocol.h"
#include "sim/worker_pool.h"

namespace lion {

/// Calvin orders each batch through a sequencer, then a single-threaded
/// lock manager per node grants locks in that fixed order. Participants
/// exchange remote reads in one round and apply writes locally — no 2PC.
/// Both the sequencer and the serial lock managers bound throughput, which
/// is why deterministic approaches plateau as nodes are added (Fig. 11b).
class CalvinProtocol : public BatchProtocol {
 public:
  CalvinProtocol(Cluster* cluster, MetricsCollector* metrics);

  std::string name() const override { return "Calvin"; }

 protected:
  void ExecuteBatch(std::vector<Item> batch) override;

 private:
  struct TxnRun;

  void RunDeterministic(Item item);
  /// Lock grants are in: every participant executes its local reads.
  void Execute(const std::shared_ptr<TxnRun>& run);
  /// One participant finished executing; the last one applies the writes.
  void FinishExecution(const std::shared_ptr<TxnRun>& run, NodeId np);

  /// Single-threaded lock manager per node, plus one global sequencer.
  std::vector<std::unique_ptr<WorkerPool>> lock_managers_;
  std::unique_ptr<WorkerPool> sequencer_;
};

}  // namespace lion
