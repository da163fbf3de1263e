#include "protocols/leap.h"

#include "harness/registry.h"

namespace lion {

LeapProtocol::LeapProtocol(Cluster* cluster, MetricsCollector* metrics)
    : Protocol(cluster, metrics), engine_(cluster, metrics) {}

void LeapProtocol::MigrateNext(std::unique_ptr<Pull> pull, size_t index) {
  if (index >= pull->missing.size()) {
    RunLocal(pull->parts, pull->coord, std::move(pull->txn),
             std::move(pull->done));
    return;
  }
  // Read what the call needs before the callback takes `pull`.
  PartitionId pid = pull->missing[index];
  NodeId coord = pull->coord;
  // Transfer only the working set: the records this transaction touches.
  uint64_t bytes = static_cast<uint64_t>(pull->txn->CountOps(pid)) *
                   cluster_->config().record_bytes;
  migrations_requested_++;
  cluster_->migration().MoveMastershipLight(
      pid, coord, bytes,
      [this, pull = std::move(pull), index, pid](bool ok) mutable {
        if (!ok) {
          // Another migration is in flight on this partition: wait for it,
          // then retry the pull (Leap keeps pulling until local).
          cluster_->remaster().WaitUntilAvailable(
              pid, [this, pull = std::move(pull), index]() mutable {
                MigrateNext(std::move(pull), index);
              });
          return;
        }
        MigrateNext(std::move(pull), index + 1);
      });
}

void LeapProtocol::RunLocal(const std::vector<PartitionId>& parts,
                            NodeId coord, TxnPtr txn, TxnDoneFn done) {
  Transaction* raw = txn.get();
  TwoPhaseEngine::Options opts;  // local commit, no prepare round needed
  engine_.Run(raw, parts, coord, opts,
              CommitOrRetry(std::move(txn), std::move(done)));
}

void LeapProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  txn->PartitionsInto(&parts_);
  NodeId coord = cluster_->router().MostPrimariesNode(parts_);
  for (PartitionId pid : parts_) cluster_->router().RecordAccess(pid);

  std::vector<PartitionId> missing;
  for (PartitionId pid : parts_) {
    if (cluster_->router().PrimaryOf(pid) != coord) missing.push_back(pid);
  }
  if (missing.empty()) {
    RunLocal(parts_, coord, std::move(txn), std::move(done));
    return;
  }

  // Pull every remote partition's mastership to the coordinator, one by one
  // (each op waits for its migration), then execute as single-node.
  txn->set_exec_class(ExecClass::kRemastered);
  auto pull = std::make_unique<Pull>();
  pull->txn = std::move(txn);
  pull->done = std::move(done);
  pull->coord = coord;
  pull->parts = parts_;
  pull->missing = std::move(missing);
  MigrateNext(std::move(pull), 0);
}


// Self-registration: resolving "Leap" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterLeapProtocol(
    "Leap", ExecutionMode::kStandard,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<LeapProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
