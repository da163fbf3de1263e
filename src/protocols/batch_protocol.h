// Shared machinery for the epoch/batch execution protocols: Star, Calvin,
// Hermes, Aria, Lotus and geo_occ collect transactions into batches
// delimited by the global epoch. The steps they share have one
// implementation each: the coordinator rule (AssignCoordinator), the
// dispatch to a partition's primary (batch_util::AtPrimary), the write
// install (ApplyAndCommit, through Occ::ApplyAndUnlock) and the epoch-end
// commit (CommitAtEpochEnd). (Batch-mode Lion keeps its own buffer, whose
// barrier waits on asynchronous remasters.)
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "protocols/batch_util.h"
#include "protocols/protocol.h"
#include "txn/occ.h"

namespace lion {

/// Buffers submitted transactions and flushes them as a batch every epoch
/// (or when the buffer reaches kMaxBatchSize). Subclasses implement
/// ExecuteBatch; aborted items can be re-queued into the next batch with
/// Requeue (deterministic protocols never abort).
class BatchProtocol : public Protocol {
 public:
  using Protocol::Protocol;

  void Start() override { StartEpochTimer(); }

  /// Flushes buffered transactions before halting the epoch timer, so
  /// every submitted transaction's completion still fires.
  void Stop() override {
    Protocol::Stop();
    Flush();
  }

  /// Epoch boundary: flush the buffered batch.
  void OnEpoch(SimTime now) override {
    (void)now;
    Flush();
  }

  void SubmitTxn(TxnPtr txn, TxnDoneFn done) override {
    OnSubmit(*txn);
    buffer_.push_back(Item{std::move(txn), std::move(done)});
    if (buffer_.size() >= kMaxBatchSize) Flush();
  }

 protected:
  /// A buffered transaction and its completion. Move-only: an item moves
  /// through its protocol's phase closures until it commits or re-queues.
  /// At 32 bytes, `this` + an item + a timestamp fits MoveFn's buffer, so
  /// the apply and epoch-commit closures below never allocate.
  struct Item {
    TxnPtr txn;
    TxnDoneFn done;
  };

  /// Hook: bookkeeping on submission (access recording etc.).
  virtual void OnSubmit(const Transaction& txn) { (void)txn; }

  /// Executes one flushed batch. Items are in submission order.
  virtual void ExecuteBatch(std::vector<Item> batch) = 0;

  /// Re-queues an aborted item into the next batch. After Stop() no epoch
  /// tick remains to pick the retry up, so one more flush runs an epoch
  /// later — the completion must still fire. (Not synchronous: some
  /// protocols hold locks to the epoch boundary, so an immediate re-flush
  /// would re-conflict forever; a strong event also keeps RunUntilIdle
  /// draining until the retry lands.) At most one such flush is pending:
  /// it takes the whole buffer, and a second one at the same instant would
  /// re-run the retries inside the epoch that just aborted them.
  void Requeue(Item item) {
    metrics_->OnAbort();
    item.txn->ResetForRestart();
    buffer_.push_back(std::move(item));
    if (stopped() && !drain_flush_pending_) {
      drain_flush_pending_ = true;
      cluster_->sim()->Schedule(cluster_->config().epoch_interval, [this]() {
        drain_flush_pending_ = false;
        Flush();
      });
    }
  }

  /// The partitions `txn` touches, in a buffer reused across calls: the
  /// reference is valid until the next call, and AssignCoordinator,
  /// ReadPhase and ApplyAndCommit make one.
  const std::vector<PartitionId>& PartitionsOf(const Transaction& txn) {
    txn.PartitionsInto(&parts_);
    return parts_;
  }

  /// The coordinator rule of the batch family: `txn` runs at the node that
  /// holds most of its primaries (RouterTable::MostPrimariesNode), as a
  /// single-node transaction if that node holds all of them and as a
  /// distributed one otherwise. Sets both on `txn`; returns the node.
  NodeId AssignCoordinator(Transaction* txn) {
    const std::vector<PartitionId>& parts = PartitionsOf(*txn);
    int hosted = 0;
    NodeId coord = cluster_->router().MostPrimariesNode(parts, &hosted);
    txn->set_coordinator(coord);
    txn->set_exec_class(hosted == static_cast<int>(parts.size())
                            ? ExecClass::kSingleNode
                            : ExecClass::kDistributed);
    return coord;
  }

  /// Runs the read phase of `txn` from `coord`: the admission cost (setup
  /// plus the transaction's extra compute) as one kNew task at `coord`,
  /// then each partition's reads at its primary, a remote one replying
  /// with the values. Calls `done` when every partition's reads completed.
  void ReadPhase(Transaction* txn, NodeId coord, MoveFn<void()> done) {
    auto join = std::make_shared<batch_util::Join>(PartitionsOf(*txn).size(),
                                                   std::move(done));
    SimTime setup = cluster_->config().txn_setup_cost + txn->extra_compute();
    cluster_->pool(coord)->Submit(
        TaskPriority::kNew, setup, [this, txn, coord, join]() {
          const ClusterConfig& cfg = cluster_->config();
          for (PartitionId pid : PartitionsOf(*txn)) {
            int n_ops = txn->CountOps(pid);
            batch_util::AtPrimary(
                cluster_, coord, pid,
                {n_ops * cfg.op_local_cost, n_ops * cfg.op_service_cost,
                 MessageSizes::kHeader +
                     static_cast<uint64_t>(n_ops) * MessageSizes::kOpRequest,
                 MessageSizes::kHeader +
                     static_cast<uint64_t>(n_ops) * MessageSizes::kOpResponse},
                [this, txn, pid]() { Occ::ReadOps(cluster_->store(pid), txn); },
                [join]() { join->Arrive(); });
          }
        });
  }

  /// Commits `item` once the current epoch closes (group visibility).
  void CommitAtEpochEnd(Item item) {
    SimTime wait_start = cluster_->sim()->Now();
    auto commit = [this, item = std::move(item), wait_start]() mutable {
      item.txn->breakdown().replication += cluster_->sim()->Now() - wait_start;
      metrics_->OnCommit(*item.txn, cluster_->sim()->Now());
      item.done(std::move(item.txn));
    };
    static_assert(MoveFn<void()>::kFitsInline<decltype(commit)>,
                  "the epoch-commit closure must not allocate");
    cluster_->replication().OnEpochEnd(std::move(commit));
  }

  /// Installs the item's writes from `coord`, one task per partition at
  /// its primary (Occ::ApplyAndUnlock, which also appends the replication
  /// log and finds no lock to release unless the protocol validated with
  /// Occ::ValidateAndLock), charges the apply to the commit phase, then
  /// commits at the epoch end.
  void ApplyAndCommit(Item item, NodeId coord) {
    Transaction* txn = item.txn.get();
    const std::vector<PartitionId>& parts = PartitionsOf(*txn);
    SimTime apply_start = cluster_->sim()->Now();
    auto commit = [this, item = std::move(item), apply_start]() mutable {
      item.txn->breakdown().commit += cluster_->sim()->Now() - apply_start;
      CommitAtEpochEnd(std::move(item));
    };
    static_assert(MoveFn<void()>::kFitsInline<decltype(commit)>,
                  "the apply fan-in's continuation must not allocate");
    auto join =
        std::make_shared<batch_util::Join>(parts.size(), std::move(commit));
    const ClusterConfig& cfg = cluster_->config();
    for (PartitionId pid : parts) {
      int writes = txn->CountOps(pid, OpType::kWrite);
      SimTime cost = cfg.log_write_cost + writes * cfg.op_local_cost;
      batch_util::AtPrimary(
          cluster_, coord, pid,
          {cost, cost,
           MessageSizes::kHeader +
               static_cast<uint64_t>(writes) * MessageSizes::kLogEntry,
           0},
          [this, txn, pid]() {
            Occ::ApplyAndUnlock(cluster_->store(pid), txn,
                                &cluster_->replication());
          },
          [join]() { join->Arrive(); });
    }
  }

  void Flush() {
    if (buffer_.empty()) return;
    std::vector<Item> batch;
    batch.swap(buffer_);
    ExecuteBatch(std::move(batch));
  }

 private:
  std::vector<Item> buffer_;
  std::vector<PartitionId> parts_;  // PartitionsOf's buffer
  bool drain_flush_pending_ = false;  // a post-Stop flush is scheduled
};

}  // namespace lion
