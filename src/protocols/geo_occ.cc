#include "protocols/geo_occ.h"

#include <utility>

#include "harness/registry.h"
#include "protocols/batch_util.h"

namespace lion {

// Per-transaction state, shared by the closures of each fan-out round
// (validate, then release on abort); `pending` counts the round's
// outstanding partitions. `locked` mirrors `parts`: only partitions whose
// ValidateAndLock succeeded hold locks and need a release message on the
// abort path.
struct GeoOccProtocol::TxnState {
  Item item;
  std::vector<PartitionId> parts;
  std::vector<char> locked;
  int pending = 0;
  bool ok = true;
};

GeoOccProtocol::GeoOccProtocol(Cluster* cluster, MetricsCollector* metrics)
    : BatchProtocol(cluster, metrics) {}

void GeoOccProtocol::ExecuteBatch(std::vector<Item> batch) {
  // Optimistic execution: every transaction of the epoch reads in parallel
  // with no coordination. Conflicts surface later, at validation.
  for (Item& item : batch) {
    auto st = std::make_shared<TxnState>();
    st->item = std::move(item);
    Transaction* txn = st->item.txn.get();
    NodeId coord = AssignCoordinator(txn);
    st->parts = PartitionsOf(*txn);
    st->locked.assign(st->parts.size(), 0);
    SimTime start = cluster_->sim()->Now();
    ReadPhase(txn, coord, [this, st, txn, start]() {
      txn->breakdown().execution += cluster_->sim()->Now() - start;
      ValidatePhase(st);
    });
  }
}

void GeoOccProtocol::ValidatePhase(const std::shared_ptr<TxnState>& st) {
  // One validate-and-lock request per touched partition, served at its
  // primary. Remote primaries — in a geo deployment, typically the
  // cross-region ones — pay one WAN round-trip; that round-trip is per
  // epoch-boundary, not per lock acquisition.
  Transaction* txn = st->item.txn.get();
  const ClusterConfig& cfg = cluster_->config();
  st->pending = static_cast<int>(st->parts.size());
  SimTime start = cluster_->sim()->Now();

  for (size_t i = 0; i < st->parts.size(); ++i) {
    PartitionId pid = st->parts[i];
    int n_ops = txn->CountOps(pid);
    SimTime cost = n_ops * cfg.validation_cost_per_op;
    // A remote primary votes back to the coordinator; the decision itself
    // is the epoch-boundary commit/abort below.
    batch_util::AtPrimary(
        cluster_, txn->coordinator(), pid,
        {cost, cost,
         MessageSizes::kPrepare +
             static_cast<uint64_t>(n_ops) * MessageSizes::kOpRequest,
         MessageSizes::kCommitDecision},
        [this, st, txn, pid, i, start]() {
          bool locked = Occ::ValidateAndLock(cluster_->store(pid), txn);
          st->locked[i] = locked ? 1 : 0;
          if (!locked) st->ok = false;
          if (--st->pending == 0) {
            txn->breakdown().commit += cluster_->sim()->Now() - start;
            FinishValidation(st);
          }
        },
        []() {});
  }
}

void GeoOccProtocol::FinishValidation(const std::shared_ptr<TxnState>& st) {
  if (st->ok) {
    // Unanimous yes: install the writes and release the locks at every
    // primary; visibility waits for the epoch to close (group commit), so
    // all of an epoch's survivors become visible together.
    NodeId coord = st->item.txn->coordinator();
    ApplyAndCommit(std::move(st->item), coord);
  } else {
    validation_aborts_++;
    AbortPhase(st);
  }
}

void GeoOccProtocol::AbortPhase(const std::shared_ptr<TxnState>& st) {
  // Conflict: release whatever locks validation managed to take, then
  // re-queue for the next epoch (abort-and-retry).
  Transaction* txn = st->item.txn.get();
  st->pending = 0;
  for (char locked : st->locked) st->pending += locked;
  if (st->pending == 0) {
    Requeue(std::move(st->item));
    return;
  }
  for (size_t i = 0; i < st->parts.size(); ++i) {
    if (!st->locked[i]) continue;
    PartitionId pid = st->parts[i];
    batch_util::AtPrimary(
        cluster_, txn->coordinator(), pid,
        {0, 0, MessageSizes::kCommitDecision, 0},
        [this, st, txn, pid]() {
          Occ::ReleaseLocks(cluster_->store(pid), txn);
          if (--st->pending == 0) Requeue(std::move(st->item));
        },
        []() {});
  }
}


// Self-registration: resolving "geo_occ" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterGeoOccProtocol(
    "geo_occ", ExecutionMode::kBatch,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<GeoOccProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
