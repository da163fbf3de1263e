// Direct tests of the shared BatchProtocol machinery via minimal concrete
// subclasses: epoch-aligned flushing, size-cap flushing, requeue-on-abort,
// epoch-end commit visibility, and the drain of a stopped protocol.
#include <gtest/gtest.h>

#include <algorithm>

#include "protocols/batch_protocol.h"

namespace lion {
namespace {

/// Test double: commits every transaction instantly at execution time,
/// optionally aborting each transaction's first attempt.
class RecordingBatchProtocol : public BatchProtocol {
 public:
  RecordingBatchProtocol(Cluster* cluster, MetricsCollector* metrics,
                         bool abort_first_attempt)
      : BatchProtocol(cluster, metrics), abort_first_(abort_first_attempt) {}

  std::string name() const override { return "test-batch"; }

  std::vector<size_t> batch_sizes;
  std::vector<SimTime> flush_times;

 protected:
  void ExecuteBatch(std::vector<Item> batch) override {
    batch_sizes.push_back(batch.size());
    flush_times.push_back(cluster_->sim()->Now());
    for (auto& item : batch) {
      TxnId id = item.txn->id();
      if (abort_first_ && attempted_.insert(id).second) {
        Requeue(std::move(item));
        continue;
      }
      CommitAtEpochEnd(std::move(item));
    }
  }

 private:
  bool abort_first_;
  std::set<TxnId> attempted_;
};

/// Test double for a lock held to the epoch end (Lotus's granules): the
/// first item to run in an epoch takes the one lock, and every other item
/// of that epoch conflicts and re-queues.
class EpochLockBatchProtocol : public BatchProtocol {
 public:
  EpochLockBatchProtocol(Cluster* cluster, MetricsCollector* metrics)
      : BatchProtocol(cluster, metrics) {}

  std::string name() const override { return "test-epoch-lock"; }

  std::vector<SimTime> flush_times;

 protected:
  void ExecuteBatch(std::vector<Item> batch) override {
    flush_times.push_back(cluster_->sim()->Now());
    for (auto& item : batch) {
      if (locked_) {
        Requeue(std::move(item));
        continue;
      }
      locked_ = true;
      cluster_->replication().OnEpochEnd([this]() { locked_ = false; });
      CommitAtEpochEnd(std::move(item));
    }
  }

 private:
  bool locked_ = false;
};

ClusterConfig Cfg() {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.partitions_per_node = 1;
  cfg.records_per_partition = 100;
  cfg.record_bytes = 100;
  return cfg;
}

TxnPtr Txn(TxnId id) {
  auto t = std::make_unique<Transaction>(id, 0);
  Operation op;
  op.partition = 0;
  op.key = 1;
  op.type = OpType::kRead;
  t->ops().push_back(op);
  return t;
}

TEST(BatchProtocolTest, FlushesOncePerEpoch) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  RecordingBatchProtocol proto(&cluster, &metrics, false);
  proto.Start();
  int done = 0;
  for (int i = 0; i < 5; ++i) proto.Submit(Txn(i + 1), [&](TxnPtr) { done++; });
  sim.RunUntil(3 * cfg.epoch_interval);
  ASSERT_EQ(proto.batch_sizes.size(), 1u);  // empty batches are not flushed
  EXPECT_EQ(proto.batch_sizes[0], 5u);
  EXPECT_EQ(proto.flush_times[0], cfg.epoch_interval);
  EXPECT_EQ(done, 5);
}

TEST(BatchProtocolTest, SizeCapFlushesEarly) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  RecordingBatchProtocol proto(&cluster, &metrics, false);
  proto.Start();
  constexpr size_t kCap = Protocol::kMaxBatchSize;
  for (size_t i = 0; i < 2 * kCap + 1; ++i) {
    proto.Submit(Txn(i + 1), [](TxnPtr) {});
  }
  // Two size-triggered flushes at t=0; the remaining txn waits for the epoch.
  ASSERT_EQ(proto.batch_sizes.size(), 2u);
  EXPECT_EQ(proto.batch_sizes[0], kCap);
  EXPECT_EQ(proto.batch_sizes[1], kCap);
  EXPECT_EQ(proto.flush_times[0], 0);
  EXPECT_EQ(proto.flush_times[1], 0);
  sim.RunUntil(2 * cfg.epoch_interval);
  ASSERT_EQ(proto.batch_sizes.size(), 3u);
  EXPECT_EQ(proto.batch_sizes[2], 1u);
  EXPECT_EQ(proto.flush_times[2], cfg.epoch_interval);
}

TEST(BatchProtocolTest, RequeuedTxnsJoinNextBatchAndCommit) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  RecordingBatchProtocol proto(&cluster, &metrics, /*abort_first=*/true);
  proto.Start();
  int done = 0;
  for (int i = 0; i < 4; ++i) proto.Submit(Txn(i + 1), [&](TxnPtr) { done++; });
  sim.RunUntil(4 * cfg.epoch_interval);
  EXPECT_EQ(done, 4);
  EXPECT_EQ(metrics.aborts(), 4u);
  // First flush carries the 4 fresh txns; the second carries the 4 retries.
  ASSERT_GE(proto.batch_sizes.size(), 2u);
  EXPECT_EQ(proto.batch_sizes[0], 4u);
  EXPECT_EQ(proto.batch_sizes[1], 4u);
  // Restart counters were bumped by Requeue.
  EXPECT_EQ(metrics.committed(), 4u);
}

TEST(BatchProtocolTest, CommitVisibilityAtEpochBoundary) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  RecordingBatchProtocol proto(&cluster, &metrics, false);
  proto.Start();
  SimTime done_at = -1;
  proto.Submit(Txn(1), [&](TxnPtr t) {
    done_at = sim.Now();
    EXPECT_GT(t->breakdown().replication, 0);
  });
  sim.RunUntil(5 * cfg.epoch_interval);
  // Flushed at epoch 1, visible at epoch 2's boundary.
  EXPECT_EQ(done_at, 2 * cfg.epoch_interval);
}

TEST(BatchProtocolTest, StoppedProtocolDrainsOneFlushPerInstant) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  EpochLockBatchProtocol proto(&cluster, &metrics);
  proto.Start();
  constexpr int kTxns = 5;
  int done = 0;
  for (int i = 0; i < kTxns; ++i) {
    proto.Submit(Txn(i + 1), [&](TxnPtr) { done++; });
  }
  // Stop flushes the buffer: one item takes the lock and the rest re-queue.
  // With no epoch tick left, the retries drain through post-stop flushes,
  // one item per epoch. A second flush at the same instant would re-run
  // the retries inside the epoch that just aborted them, and every such
  // re-run schedules more flushes.
  proto.Stop();
  for (int epoch = 1; epoch <= 4 * kTxns && done < kTxns; ++epoch) {
    sim.RunUntil(epoch * cfg.epoch_interval);
  }
  EXPECT_EQ(done, kTxns);
  EXPECT_EQ(metrics.committed(), static_cast<uint64_t>(kTxns));
  std::vector<SimTime> instants = proto.flush_times;
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());
  EXPECT_EQ(instants.size(), proto.flush_times.size())
      << "two flushes ran at the same instant";
  EXPECT_LE(proto.flush_times.size(), static_cast<size_t>(kTxns) + 1);
}

}  // namespace
}  // namespace lion
