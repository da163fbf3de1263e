#include "protocols/twopc.h"

#include <vector>

#include "harness/registry.h"

namespace lion {

TwoPcProtocol::TwoPcProtocol(Cluster* cluster, MetricsCollector* metrics)
    : Protocol(cluster, metrics), engine_(cluster, metrics) {}

NodeId TwoPcProtocol::RouteToMostPrimaries(
    const std::vector<PartitionId>& parts, const RouterTable& table) {
  // Per-node tallies on the stack; only unusually large clusters spill.
  constexpr int kStackNodes = 64;
  int stack_count[kStackNodes] = {};
  std::vector<int> heap_count;
  int* count = stack_count;
  if (table.num_nodes() > kStackNodes) {
    heap_count.assign(table.num_nodes(), 0);
    count = heap_count.data();
  }
  for (PartitionId pid : parts) count[table.PrimaryOf(pid)]++;
  NodeId best = 0;
  for (NodeId n = 1; n < table.num_nodes(); ++n) {
    if (count[n] > count[best]) best = n;
  }
  return best;
}

void TwoPcProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  txn->PartitionsInto(&parts_);
  NodeId coord = RouteToMostPrimaries(parts_, cluster_->router());
  for (PartitionId pid : parts_) cluster_->router().RecordAccess(pid);
  Transaction* raw = txn.get();
  engine_.Run(raw, parts_, coord, TwoPhaseEngine::Options{},
              CommitOrRetry(std::move(txn), std::move(done)));
}


// Self-registration: resolving "2PC" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterTwoPcProtocol(
    "2PC", ExecutionMode::kStandard,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<TwoPcProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
