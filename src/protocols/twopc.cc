#include "protocols/twopc.h"

#include "harness/registry.h"

namespace lion {

TwoPcProtocol::TwoPcProtocol(Cluster* cluster, MetricsCollector* metrics)
    : Protocol(cluster, metrics), engine_(cluster, metrics) {}

void TwoPcProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  txn->PartitionsInto(&parts_);
  NodeId coord = cluster_->router().MostPrimariesNode(parts_);
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
