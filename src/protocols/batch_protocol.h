// Shared machinery for the epoch/batch execution protocols: Star, Calvin,
// Hermes, Aria, Lotus and geo_occ collect transactions into batches
// delimited by the global epoch. (Batch-mode Lion keeps its own buffer,
// whose barrier waits on asynchronous remasters.)
#pragma once

#include <utility>
#include <vector>

#include "protocols/batch_util.h"
#include "protocols/protocol.h"

namespace lion {

/// Buffers submitted transactions and flushes them as a batch every epoch
/// (or when the batch-size cap is reached). Subclasses implement
/// ExecuteBatch; aborted items can be re-queued into the next batch with
/// Requeue (deterministic protocols never abort).
class BatchProtocol : public Protocol {
 public:
  BatchProtocol(Cluster* cluster, MetricsCollector* metrics,
                size_t max_batch = 10000)
      : Protocol(cluster, metrics), max_batch_(max_batch) {}

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
    if (buffer_.size() >= max_batch_) Flush();
  }

 protected:
  /// A buffered transaction and its completion. Move-only: an item moves
  /// through its protocol's phase closures until it commits or re-queues.
  struct Item {
    TxnPtr txn;
    TxnDoneFn done;
  };

  /// Hook: bookkeeping on submission (access recording etc.).
  virtual void OnSubmit(const Transaction& txn) { (void)txn; }

  /// Executes one flushed batch. Items are in submission order.
  virtual void ExecuteBatch(std::vector<Item> batch) = 0;

  /// Re-queues an aborted item into the next batch. After Stop() no epoch
  /// tick remains to pick the retry up, so schedule one more flush an
  /// epoch later — the completion must still fire. (Not synchronous: some
  /// protocols hold locks to the epoch boundary, so an immediate re-flush
  /// would re-conflict forever; a strong event also keeps RunUntilIdle
  /// draining until the retry lands.)
  void Requeue(Item item) {
    metrics_->OnAbort();
    item.txn->ResetForRestart();
    buffer_.push_back(std::move(item));
    if (stopped()) {
      cluster_->sim()->Schedule(cluster_->config().epoch_interval,
                                [this]() { Flush(); });
    }
  }

  /// Commits `item` once the current epoch closes (group visibility).
  void CommitAtEpochEnd(Item item) {
    SimTime wait_start = cluster_->sim()->Now();
    cluster_->replication().OnEpochEnd(
        [this, item = std::move(item), wait_start]() mutable {
          item.txn->breakdown().replication +=
              cluster_->sim()->Now() - wait_start;
          metrics_->OnCommit(*item.txn, cluster_->sim()->Now());
          item.done(std::move(item.txn));
        });
  }

  /// Applies the item's writes from `coord` (batch_util::ApplyWrites),
  /// charges the apply to the commit phase, then commits at the epoch end.
  void ApplyAndCommit(Item item, NodeId coord) {
    Transaction* txn = item.txn.get();
    SimTime apply_start = cluster_->sim()->Now();
    batch_util::ApplyWrites(
        cluster_, txn, coord,
        [this, item = std::move(item), apply_start]() mutable {
          item.txn->breakdown().commit += cluster_->sim()->Now() - apply_start;
          CommitAtEpochEnd(std::move(item));
        });
  }

  void Flush() {
    if (buffer_.empty()) return;
    std::vector<Item> batch;
    batch.swap(buffer_);
    ExecuteBatch(std::move(batch));
  }

  size_t buffered() const { return buffer_.size(); }

 private:
  size_t max_batch_;
  std::vector<Item> buffer_;
};

}  // namespace lion
