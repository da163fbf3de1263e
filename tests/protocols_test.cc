// End-to-end tests for every baseline protocol: commits happen, the
// shape-critical behaviours (migration blocking, super-node routing,
// deterministic locking, reservations, granule conflicts) are exercised.
#include <gtest/gtest.h>

#include "harness/driver.h"
#include "protocols/aria.h"
#include "protocols/calvin.h"
#include "protocols/clay.h"
#include "protocols/hermes.h"
#include "protocols/leap.h"
#include "protocols/lotus.h"
#include "protocols/star.h"
#include "protocols/twopc.h"
#include "workload/ycsb.h"

namespace lion {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.partitions_per_node = 2;
  cfg.records_per_partition = 2000;
  cfg.record_bytes = 100;
  return cfg;
}

YcsbConfig CrossWorkload(double cross) {
  YcsbConfig y;
  y.ops_per_txn = 6;
  y.cross_ratio = cross;
  return y;
}

TxnPtr MakeWrite(TxnId id, PartitionId pid, Key key) {
  auto txn = std::make_unique<Transaction>(id, 0);
  Operation op;
  op.partition = pid;
  op.key = key;
  op.type = OpType::kWrite;
  txn->ops().push_back(op);
  return txn;
}

TxnPtr MakeCross(TxnId id, PartitionId a, PartitionId b) {
  auto txn = std::make_unique<Transaction>(id, 0);
  for (PartitionId pid : {a, b}) {
    Operation op;
    op.partition = pid;
    op.key = 5;
    op.type = OpType::kWrite;
    txn->ops().push_back(op);
  }
  return txn;
}

// Runs a protocol against YCSB for a fixed horizon and returns metrics.
template <typename P, typename... Args>
void RunClosedLoop(const ClusterConfig& ccfg, const YcsbConfig& ycfg,
                   MetricsCollector* metrics, SimTime horizon, Args&&... args) {
  Simulator sim;
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  P protocol(&cluster, metrics, std::forward<Args>(args)...);
  protocol.Start();
  YcsbWorkload workload(ccfg, ycfg);
  ClosedLoopDriver driver(&sim, &protocol, &workload, metrics, 24);
  driver.Start();
  sim.RunUntil(horizon);
  driver.Stop();
}

// --- Leap -----------------------------------------------------------------------

TEST(LeapTest, LocalTxnCommitsWithoutMigration) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  cluster.Start();
  MetricsCollector metrics;
  LeapProtocol leap(&cluster, &metrics);
  bool done = false;
  leap.Submit(MakeWrite(1, 0, 3), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->exec_class(), ExecClass::kSingleNode);
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(leap.migrations_requested(), 0u);
}

TEST(LeapTest, CrossTxnPullsMastershipThenCommitsLocally) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  LeapProtocol leap(&cluster, &metrics);
  // Partitions 0 (n0) and 1 (n1): Leap pulls one of them over.
  bool done = false;
  leap.Submit(MakeCross(1, 0, 1), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->exec_class(), ExecClass::kRemastered);
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(leap.migrations_requested(), 1u);
  // Both primaries now co-located on the coordinator.
  EXPECT_EQ(cluster.router().PrimaryOf(0), cluster.router().PrimaryOf(1));
  EXPECT_EQ(metrics.distributed(), 0u);  // Leap never runs 2PC
}

TxnPtr MakeAnchored(TxnId id, PartitionId a, PartitionId b, PartitionId c) {
  auto txn = std::make_unique<Transaction>(id, 0);
  for (PartitionId pid : {a, b, c}) {
    Operation op;
    op.partition = pid;
    op.key = 5;
    op.type = OpType::kWrite;
    txn->ops().push_back(op);
  }
  return txn;
}

TEST(LeapTest, PingPongUnderOppositeAffinity) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  LeapProtocol leap(&cluster, &metrics);
  // Stream A anchors on n0 (partitions 0, 3), stream B anchors on n1
  // (partitions 1, 4); both also touch the contested partition 2, which
  // Leap keeps pulling back and forth: the ping-pong effect.
  int done = 0;
  for (int round = 0; round < 3; ++round) {
    sim.Schedule(round * 100 * kMillisecond, [&, round]() {
      leap.Submit(MakeAnchored(round * 2 + 1, 0, 3, 2), [&](TxnPtr) { done++; });
    });
    sim.Schedule(round * 100 * kMillisecond + 50 * kMillisecond, [&, round]() {
      leap.Submit(MakeAnchored(round * 2 + 2, 1, 4, 2), [&](TxnPtr) { done++; });
    });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(done, 6);
  // The contested partition migrated repeatedly between the two anchors.
  EXPECT_GE(cluster.migration().migrations_completed(), 4u);
}

TEST(LeapTest, ClosedLoopYcsb) {
  MetricsCollector metrics;
  RunClosedLoop<LeapProtocol>(SmallCluster(), CrossWorkload(0.5), &metrics,
                              1 * kSecond);
  EXPECT_GT(metrics.committed(), 100u);
  EXPECT_EQ(metrics.distributed(), 0u);
}

// --- Clay -----------------------------------------------------------------------

TEST(ClayTest, TransactionsAlwaysUse2pcPath) {
  MetricsCollector metrics;
  RunClosedLoop<ClayProtocol>(SmallCluster(), CrossWorkload(1.0), &metrics,
                              1 * kSecond);
  EXPECT_GT(metrics.committed(), 50u);
  EXPECT_GT(metrics.distributed(), 0u);  // Clay does not convert txns
}

TEST(ClayTest, RepartitionsOnLoadImbalance) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  ClayConfig clay_cfg;
  clay_cfg.monitor_interval = 100 * kMillisecond;
  ClayProtocol clay(&cluster, &metrics, clay_cfg);
  clay.Start();

  YcsbConfig ycfg = CrossWorkload(0.3);
  ycfg.skew_factor = 0.9;  // hammer node 0
  YcsbWorkload workload(ccfg, ycfg);
  ClosedLoopDriver driver(&sim, &clay, &workload, &metrics, 24);
  driver.Start();
  sim.RunUntil(2 * kSecond);
  driver.Stop();
  EXPECT_GT(clay.repartitions(), 0u);
}

TEST(ClayTest, NoRepartitionWhenBalanced) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  ClayProtocol clay(&cluster, &metrics);
  clay.Start();
  YcsbWorkload workload(ccfg, CrossWorkload(0.0));  // uniform single-node
  ClosedLoopDriver driver(&sim, &clay, &workload, &metrics, 24);
  driver.Start();
  sim.RunUntil(2 * kSecond);
  driver.Stop();
  EXPECT_EQ(clay.repartitions(), 0u);
}

// --- Star -----------------------------------------------------------------------

TEST(StarTest, SuperNodeGetsFullReplicaSet) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  MetricsCollector metrics;
  StarProtocol star(&cluster, &metrics);
  star.Start();
  for (PartitionId p = 0; p < cluster.num_partitions(); ++p) {
    EXPECT_TRUE(cluster.router().HasReplica(0, p)) << "partition " << p;
  }
}

TEST(StarTest, CrossTxnsRunOnSuperNode) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  StarProtocol star(&cluster, &metrics);
  star.Start();
  bool done = false;
  star.Submit(MakeCross(1, 1, 2), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->coordinator(), 0);  // the super node
    EXPECT_EQ(t->exec_class(), ExecClass::kRemastered);
  });
  sim.RunUntil(5 * ccfg.epoch_interval);
  EXPECT_TRUE(done);
  EXPECT_EQ(star.super_node_txns(), 1u);
}

TEST(StarTest, SingleHomeTxnsStayOnHomeNodes) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  StarProtocol star(&cluster, &metrics);
  star.Start();
  bool done = false;
  star.Submit(MakeWrite(1, 1, 3), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->coordinator(), 1);
    EXPECT_EQ(t->exec_class(), ExecClass::kSingleNode);
  });
  sim.RunUntil(5 * ccfg.epoch_interval);
  EXPECT_TRUE(done);
  EXPECT_EQ(star.super_node_txns(), 0u);
}

TEST(StarTest, ClosedLoopHighCross) {
  MetricsCollector metrics;
  RunClosedLoop<StarProtocol>(SmallCluster(), CrossWorkload(0.8), &metrics,
                              1 * kSecond);
  EXPECT_GT(metrics.committed(), 100u);
}

// --- Calvin ---------------------------------------------------------------------

TEST(CalvinTest, CommitsSingleAndMultiHome) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  CalvinProtocol calvin(&cluster, &metrics);
  calvin.Start();
  int done = 0;
  ExecClass cls1 = ExecClass::kSingleNode, cls2 = ExecClass::kSingleNode;
  calvin.Submit(MakeWrite(1, 0, 3), [&](TxnPtr t) {
    done++;
    cls1 = t->exec_class();
  });
  calvin.Submit(MakeCross(2, 0, 1), [&](TxnPtr t) {
    done++;
    cls2 = t->exec_class();
  });
  sim.RunUntil(5 * ccfg.epoch_interval);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(cls1, ExecClass::kSingleNode);
  EXPECT_EQ(cls2, ExecClass::kDistributed);
  EXPECT_EQ(metrics.aborts(), 0u);  // deterministic: no aborts
}

TEST(CalvinTest, WritesApplied) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  CalvinProtocol calvin(&cluster, &metrics);
  calvin.Start();
  calvin.Submit(MakeCross(7, 0, 1), [](TxnPtr) {});
  sim.RunUntil(5 * ccfg.epoch_interval);
  EXPECT_EQ(cluster.store(0)->VersionOf(5), 2u);
  EXPECT_EQ(cluster.store(1)->VersionOf(5), 2u);
}

TEST(CalvinTest, ClosedLoopYcsb) {
  MetricsCollector metrics;
  RunClosedLoop<CalvinProtocol>(SmallCluster(), CrossWorkload(0.5), &metrics,
                                1 * kSecond);
  EXPECT_GT(metrics.committed(), 100u);
  EXPECT_EQ(metrics.aborts(), 0u);
}

// --- Hermes ---------------------------------------------------------------------

TEST(HermesTest, MigratesToSingleHomeAndCommits) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  HermesProtocol hermes(&cluster, &metrics);
  hermes.Start();
  bool done = false;
  hermes.Submit(MakeCross(1, 0, 1), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->exec_class(), ExecClass::kRemastered);
  });
  sim.RunUntil(10 * ccfg.epoch_interval);
  EXPECT_TRUE(done);
  EXPECT_GE(hermes.migrations_requested(), 1u);
  EXPECT_EQ(cluster.router().PrimaryOf(0), cluster.router().PrimaryOf(1));
}

TEST(HermesTest, BatchReorderingReusesMigrations) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  HermesProtocol hermes(&cluster, &metrics);
  hermes.Start();
  int done = 0;
  // Five txns on the same partition pair inside one batch: after the first
  // migration the rest find the pair co-located.
  for (int i = 0; i < 5; ++i) {
    hermes.Submit(MakeCross(i + 1, 0, 1), [&](TxnPtr) { done++; });
  }
  sim.RunUntil(10 * ccfg.epoch_interval);
  EXPECT_EQ(done, 5);
  // Only the first transaction's migration actually moves data; the other
  // four find the pair co-located once it completes.
  EXPECT_LE(cluster.migration().migrations_completed(), 2u);
}

TEST(HermesTest, ClosedLoopYcsb) {
  MetricsCollector metrics;
  RunClosedLoop<HermesProtocol>(SmallCluster(), CrossWorkload(0.5), &metrics,
                                1 * kSecond);
  EXPECT_GT(metrics.committed(), 100u);
}

// --- Aria -----------------------------------------------------------------------

TEST(AriaTest, NonConflictingTxnsCommitInOneBatch) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  AriaProtocol aria(&cluster, &metrics);
  aria.Start();
  int done = 0;
  aria.Submit(MakeWrite(1, 0, 3), [&](TxnPtr) { done++; });
  aria.Submit(MakeWrite(2, 1, 4), [&](TxnPtr) { done++; });
  sim.RunUntil(5 * ccfg.epoch_interval);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(aria.reservation_aborts(), 0u);
}

TEST(AriaTest, BlindWriteWriteConflictCommitsViaReordering) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  AriaProtocol aria(&cluster, &metrics);
  aria.Start();
  int done = 0;
  // Same key, blind writes: Aria's reordering serializes them by txn id
  // within the batch — both commit, no aborts.
  aria.Submit(MakeWrite(1, 0, 7), [&](TxnPtr) { done++; });
  aria.Submit(MakeWrite(2, 0, 7), [&](TxnPtr) { done++; });
  sim.RunUntil(5 * ccfg.epoch_interval);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(aria.reservation_aborts(), 0u);
}

TEST(AriaTest, ReadAfterWriteHazardAbortsReader) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  AriaProtocol aria(&cluster, &metrics);
  aria.Start();
  int done = 0;
  // Txn 1 writes key 7; txn 2 reads it in the same batch: the reader saw a
  // stale snapshot and must re-execute next batch.
  aria.Submit(MakeWrite(1, 0, 7), [&](TxnPtr) { done++; });
  auto reader = std::make_unique<Transaction>(2, 0);
  Operation op;
  op.partition = 0;
  op.key = 7;
  op.type = OpType::kRead;
  reader->ops().push_back(op);
  aria.Submit(std::move(reader), [&](TxnPtr) { done++; });
  sim.RunUntil(10 * ccfg.epoch_interval);
  EXPECT_EQ(done, 2);
  EXPECT_GE(aria.reservation_aborts(), 1u);
  EXPECT_GE(metrics.aborts(), 1u);
}

TEST(AriaTest, ClosedLoopYcsb) {
  MetricsCollector metrics;
  RunClosedLoop<AriaProtocol>(SmallCluster(), CrossWorkload(0.5), &metrics,
                              1 * kSecond);
  EXPECT_GT(metrics.committed(), 100u);
}

// --- Lotus ----------------------------------------------------------------------

TEST(LotusTest, GranuleConflictAbortsToNextEpoch) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  LotusProtocol lotus(&cluster, &metrics);
  lotus.Start();
  int done = 0;
  // Two txns on the same granule (same key) in one batch: lock conflict.
  lotus.Submit(MakeWrite(1, 0, 3), [&](TxnPtr) { done++; });
  lotus.Submit(MakeWrite(2, 0, 3), [&](TxnPtr) { done++; });
  sim.RunUntil(10 * ccfg.epoch_interval);
  EXPECT_EQ(done, 2);
  EXPECT_GE(lotus.granule_conflicts(), 1u);
}

TEST(LotusTest, DisjointPartitionsNoConflict) {
  Simulator sim;
  ClusterConfig ccfg = SmallCluster();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  LotusProtocol lotus(&cluster, &metrics);
  lotus.Start();
  int done = 0;
  lotus.Submit(MakeWrite(1, 0, 3), [&](TxnPtr) { done++; });
  lotus.Submit(MakeWrite(2, 1, 3), [&](TxnPtr) { done++; });
  sim.RunUntil(5 * ccfg.epoch_interval);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(lotus.granule_conflicts(), 0u);
}

TEST(LotusTest, ClosedLoopYcsb) {
  MetricsCollector metrics;
  RunClosedLoop<LotusProtocol>(SmallCluster(), CrossWorkload(0.2), &metrics,
                               1 * kSecond);
  EXPECT_GT(metrics.committed(), 100u);
}

}  // namespace
}  // namespace lion
