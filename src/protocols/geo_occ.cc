#include "protocols/geo_occ.h"

#include <utility>

#include "harness/registry.h"
#include "protocols/batch_util.h"

namespace lion {

// Per-transaction state, shared by the closures of each fan-out round
// (validate, then apply or release); `pending` counts the round's
// outstanding partitions. `locked` mirrors `parts`: only partitions whose
// ValidateAndLock succeeded hold locks and need a release message on the
// abort path.
struct GeoOccProtocol::TxnState {
  Item item;
  NodeId coord = 0;
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
    st->coord = batch_util::HomeNode(cluster_, *txn);
    st->parts = txn->Partitions();
    st->locked.assign(st->parts.size(), 0);
    txn->set_coordinator(st->coord);
    txn->set_exec_class(batch_util::IsSingleHome(cluster_, *txn)
                            ? ExecClass::kSingleNode
                            : ExecClass::kDistributed);
    SimTime start = cluster_->sim()->Now();
    batch_util::ReadPhase(cluster_, txn, st->coord, [this, st, txn, start]() {
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
    NodeId primary = cluster_->router().PrimaryOf(pid);
    int n_ops = static_cast<int>(txn->OpsOn(pid).size());
    SimTime cost = n_ops * cfg.validation_cost_per_op;
    auto validate = [this, st, txn, pid, i, start]() {
      bool locked = Occ::ValidateAndLock(cluster_->store(pid), txn);
      st->locked[i] = locked ? 1 : 0;
      if (!locked) st->ok = false;
      if (--st->pending == 0) {
        txn->breakdown().commit += cluster_->sim()->Now() - start;
        FinishValidation(st);
      }
    };
    if (primary == st->coord) {
      cluster_->pool(primary)->Submit(TaskPriority::kResume, cost, validate);
    } else {
      uint64_t req = MessageSizes::kPrepare +
                     static_cast<uint64_t>(n_ops) * MessageSizes::kOpRequest;
      cluster_->network().Send(
          st->coord, primary, req,
          [this, st, primary, cost, validate]() {
            cluster_->pool(primary)->Submit(
                TaskPriority::kService, cost,
                [this, st, primary, validate]() {
                  validate();
                  // Vote travels back to the coordinator; the decision
                  // itself is the epoch-boundary commit/abort below.
                  cluster_->network().Send(primary, st->coord,
                                           MessageSizes::kCommitDecision,
                                           []() {});
                });
          });
    }
  }
}

void GeoOccProtocol::FinishValidation(const std::shared_ptr<TxnState>& st) {
  if (st->ok) {
    ApplyPhase(st);
  } else {
    validation_aborts_++;
    AbortPhase(st);
  }
}

void GeoOccProtocol::ApplyPhase(const std::shared_ptr<TxnState>& st) {
  // Unanimous yes: install writes, append the replication log, and release
  // locks at every primary; visibility waits for the epoch to close (group
  // commit), so all of an epoch's survivors become visible together.
  Transaction* txn = st->item.txn.get();
  const ClusterConfig& cfg = cluster_->config();
  st->pending = static_cast<int>(st->parts.size());
  SimTime start = cluster_->sim()->Now();

  for (PartitionId pid : st->parts) {
    NodeId primary = cluster_->router().PrimaryOf(pid);
    int writes = 0;
    for (const auto& op : txn->ops())
      if (op.partition == pid && op.type == OpType::kWrite) writes++;
    SimTime cost = cfg.log_write_cost + writes * cfg.op_local_cost;
    auto apply = [this, st, txn, pid, start]() {
      Occ::ApplyAndUnlock(cluster_->store(pid), txn, &cluster_->replication());
      if (--st->pending == 0) {
        txn->breakdown().commit += cluster_->sim()->Now() - start;
        CommitAtEpochEnd(std::move(st->item));
      }
    };
    if (primary == st->coord) {
      cluster_->pool(primary)->Submit(TaskPriority::kResume, cost, apply);
    } else {
      uint64_t bytes = MessageSizes::kHeader +
                       static_cast<uint64_t>(writes) * MessageSizes::kLogEntry;
      cluster_->network().Send(st->coord, primary, bytes,
                               [this, primary, cost, apply]() {
                                 cluster_->pool(primary)->Submit(
                                     TaskPriority::kService, cost, apply);
                               });
    }
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
    NodeId primary = cluster_->router().PrimaryOf(pid);
    auto release = [this, st, txn, pid]() {
      Occ::ReleaseLocks(cluster_->store(pid), txn);
      if (--st->pending == 0) Requeue(std::move(st->item));
    };
    if (primary == st->coord) {
      cluster_->pool(primary)->Submit(TaskPriority::kResume, 0, release);
    } else {
      cluster_->network().Send(st->coord, primary,
                               MessageSizes::kCommitDecision,
                               [this, primary, release]() {
                                 cluster_->pool(primary)->Submit(
                                     TaskPriority::kService, 0, release);
                               });
    }
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
