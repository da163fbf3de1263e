// Tests for the transaction layer: Transaction, OCC, TwoPhaseEngine, and the
// 2PC protocol end to end with the closed-loop driver.
#include <gtest/gtest.h>

#include "harness/driver.h"
#include "metrics/metrics.h"
#include "protocols/twopc.h"
#include "replication/cluster.h"
#include "sim/simulator.h"
#include "txn/occ.h"
#include "txn/transaction.h"
#include "txn/two_phase_engine.h"
#include "workload/ycsb.h"

namespace lion {
namespace {

ClusterConfig TestConfig() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.partitions_per_node = 2;
  cfg.records_per_partition = 1000;
  cfg.record_bytes = 100;
  return cfg;
}

TxnPtr MakeTxn(TxnId id, std::vector<std::tuple<PartitionId, Key, OpType>> ops) {
  auto txn = std::make_unique<Transaction>(id, 0);
  for (auto& [pid, key, type] : ops) {
    Operation op;
    op.partition = pid;
    op.key = key;
    op.type = type;
    txn->ops().push_back(op);
  }
  return txn;
}

// --- Transaction --------------------------------------------------------------

TEST(TransactionTest, PartitionsAreSortedUnique) {
  auto txn = MakeTxn(1, {{3, 1, OpType::kRead},
                         {1, 2, OpType::kWrite},
                         {3, 9, OpType::kRead}});
  EXPECT_EQ(txn->Partitions(), (std::vector<PartitionId>{1, 3}));
}

TEST(TransactionTest, CountOpsFiltersByPartition) {
  auto txn = MakeTxn(1, {{3, 1, OpType::kRead},
                         {1, 2, OpType::kWrite},
                         {3, 9, OpType::kRead}});
  EXPECT_EQ(txn->CountOps(3), 2);
  EXPECT_EQ(txn->CountOps(1), 1);
  EXPECT_EQ(txn->CountOps(7), 0);
}

TEST(TransactionTest, CountOpsFiltersByType) {
  auto txn = MakeTxn(1, {{0, 1, OpType::kRead},
                         {1, 2, OpType::kWrite},
                         {1, 3, OpType::kRead},
                         {1, 4, OpType::kWrite}});
  EXPECT_EQ(txn->CountOps(0, OpType::kWrite), 0);
  EXPECT_EQ(txn->CountOps(0, OpType::kRead), 1);
  EXPECT_EQ(txn->CountOps(1, OpType::kWrite), 2);
  EXPECT_EQ(txn->CountOps(1, OpType::kRead), 1);
}

TEST(TransactionTest, ResetForRestartClearsRuntime) {
  auto txn = MakeTxn(1, {{0, 1, OpType::kRead}});
  txn->ops()[0].read_version = 4;
  txn->ResetForRestart();
  EXPECT_EQ(txn->ops()[0].read_version, 0u);
  EXPECT_EQ(txn->restarts(), 1);
}

TEST(TransactionTest, BreakdownTotals) {
  PhaseBreakdown bd;
  bd.scheduling = 1;
  bd.execution = 2;
  bd.commit = 3;
  bd.replication = 4;
  bd.other = 5;
  EXPECT_EQ(bd.Total(), 15);
  PhaseBreakdown sum;
  sum.Add(bd);
  sum.Add(bd);
  EXPECT_EQ(sum.execution, 4);
}

// --- Occ ----------------------------------------------------------------------

TEST(OccTest, ReadOpsRecordsVersion) {
  PartitionStore store(0, 100, 100);
  auto txn = MakeTxn(1, {{0, 7, OpType::kRead}});
  Occ::ReadOps(&store, txn.get());
  EXPECT_EQ(txn->ops()[0].read_version, 1u);
}

TEST(OccTest, ReadOpsSkipsInserts) {
  // An insert's key is new, so it reads nothing: even a row that exists
  // leaves its read_version at 0, while a plain write records its version.
  PartitionStore store(0, 100, 100);
  const Key fresh = (Key{3} << 40) | 9;
  auto txn = MakeTxn(1, {{0, 7, OpType::kWrite},
                         {0, 8, OpType::kWrite},
                         {0, fresh, OpType::kWrite}});
  txn->ops()[1].is_insert = true;
  txn->ops()[2].is_insert = true;
  Occ::ReadOps(&store, txn.get());
  EXPECT_EQ(txn->ops()[0].read_version, 1u);
  EXPECT_EQ(txn->ops()[1].read_version, 0u);
  EXPECT_EQ(txn->ops()[2].read_version, 0u);
  EXPECT_EQ(store.record_count(), 100u);  // reading created no row
  // Validation never reads a write's version, so the insert commits.
  ASSERT_TRUE(Occ::ValidateAndLock(&store, txn.get()));
  Occ::ApplyAndUnlock(&store, txn.get(), nullptr);
  EXPECT_EQ(store.VersionOf(7), 2u);
  EXPECT_EQ(store.VersionOf(fresh), 1u);
  EXPECT_EQ(store.held_locks(), 0u);
}

TEST(OccTest, ValidateSucceedsWhenUnchanged) {
  PartitionStore store(0, 100, 100);
  auto txn = MakeTxn(1, {{0, 7, OpType::kRead}, {0, 8, OpType::kWrite}});
  Occ::ReadOps(&store, txn.get());
  EXPECT_TRUE(Occ::ValidateAndLock(&store, txn.get()));
  // Write key is locked now.
  EXPECT_TRUE(store.IsLockedByOther(8, 999));
  Occ::ReleaseLocks(&store, txn.get());
  EXPECT_FALSE(store.IsLockedByOther(8, 999));
}

TEST(OccTest, ValidateFailsOnChangedReadVersion) {
  PartitionStore store(0, 100, 100);
  auto txn = MakeTxn(1, {{0, 7, OpType::kRead}});
  Occ::ReadOps(&store, txn.get());
  store.Apply(7);  // concurrent committed write
  EXPECT_FALSE(Occ::ValidateAndLock(&store, txn.get()));
}

TEST(OccTest, ValidateFailsOnLockedWrite) {
  PartitionStore store(0, 100, 100);
  auto txn = MakeTxn(1, {{0, 7, OpType::kWrite}});
  Occ::ReadOps(&store, txn.get());
  ASSERT_TRUE(store.TryLock(7, 42));
  EXPECT_FALSE(Occ::ValidateAndLock(&store, txn.get()));
}

TEST(OccTest, ValidateFailsOnLockedRead) {
  PartitionStore store(0, 100, 100);
  auto txn = MakeTxn(1, {{0, 7, OpType::kRead}});
  Occ::ReadOps(&store, txn.get());
  ASSERT_TRUE(store.TryLock(7, 42));
  EXPECT_FALSE(Occ::ValidateAndLock(&store, txn.get()));
}

TEST(OccTest, FailedValidationLeavesNoLocks) {
  PartitionStore store(0, 100, 100);
  auto txn = MakeTxn(1, {{0, 5, OpType::kWrite}, {0, 7, OpType::kRead}});
  Occ::ReadOps(&store, txn.get());
  store.Apply(7);  // invalidate the read
  EXPECT_FALSE(Occ::ValidateAndLock(&store, txn.get()));
  EXPECT_FALSE(store.IsLockedByOther(5, 999));  // write lock rolled back
}

TEST(OccTest, ApplyAndUnlockInstallsWritesAndLog) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  PartitionStore* store = cluster.store(0);
  auto txn = MakeTxn(1, {{0, 7, OpType::kWrite}});
  Occ::ReadOps(store, txn.get());
  ASSERT_TRUE(Occ::ValidateAndLock(store, txn.get()));
  Occ::ApplyAndUnlock(store, txn.get(), &cluster.replication());
  EXPECT_EQ(store->VersionOf(7), 2u);
  EXPECT_EQ(cluster.router().group(0).primary_lsn(), 1u);
  EXPECT_FALSE(store->IsLockedByOther(7, 999));
}

// --- TwoPhaseEngine -------------------------------------------------------------

TEST(TwoPhaseEngineTest, SingleNodeTxnCommits) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  // Partitions 0 and 3 both have primary on node 0.
  auto txn = MakeTxn(1, {{0, 1, OpType::kWrite}, {3, 2, OpType::kRead}});
  bool committed = false;
  engine.Run(txn.get(), txn->Partitions(), 0, TwoPhaseEngine::Options{}, [&](bool ok) { committed = ok; });
  sim.RunUntilIdle();
  EXPECT_TRUE(committed);
  EXPECT_EQ(txn->exec_class(), ExecClass::kSingleNode);
  EXPECT_EQ(cluster.store(0)->VersionOf(1), 2u);
}

TEST(TwoPhaseEngineTest, DistributedTxnCommitsAcrossNodes) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  // Partition 0 on node 0, partition 1 on node 1: distributed from node 0.
  auto txn = MakeTxn(1, {{0, 1, OpType::kWrite}, {1, 2, OpType::kWrite}});
  bool committed = false;
  engine.Run(txn.get(), txn->Partitions(), 0, TwoPhaseEngine::Options{}, [&](bool ok) { committed = ok; });
  sim.RunUntilIdle();
  EXPECT_TRUE(committed);
  EXPECT_EQ(txn->exec_class(), ExecClass::kDistributed);
  EXPECT_EQ(cluster.store(0)->VersionOf(1), 2u);
  EXPECT_EQ(cluster.store(1)->VersionOf(2), 2u);
  // Prepare replicated to secondaries; commit decisions exchanged.
  EXPECT_GT(cluster.network().total_messages(), 4u);
}

TEST(TwoPhaseEngineTest, DistributedTxnIsSlowerThanSingleNode) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  auto local = MakeTxn(1, {{0, 1, OpType::kWrite}});
  auto dist = MakeTxn(2, {{0, 2, OpType::kWrite}, {1, 3, OpType::kWrite}});
  SimTime local_done = 0, dist_done = 0;
  engine.Run(local.get(), local->Partitions(), 0, TwoPhaseEngine::Options{},
             [&](bool) { local_done = sim.Now(); });
  sim.RunUntilIdle();
  SimTime t0 = sim.Now();
  engine.Run(dist.get(), dist->Partitions(), 0, TwoPhaseEngine::Options{},
             [&](bool) { dist_done = sim.Now() - t0; });
  sim.RunUntilIdle();
  EXPECT_GT(dist_done, 2 * local_done);
}

TEST(TwoPhaseEngineTest, ConflictCausesAbort) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  // t1 reads key 5 on p0 then stalls long enough for t2 to commit a write.
  auto t1 = MakeTxn(1, {{0, 5, OpType::kRead}, {1, 6, OpType::kRead}});
  auto t2 = MakeTxn(2, {{0, 5, OpType::kWrite}});
  bool t1_committed = true;
  bool t2_committed = false;
  engine.Run(t1.get(), t1->Partitions(), 1, TwoPhaseEngine::Options{},  // remote exec on p0
             [&](bool ok) { t1_committed = ok; });
  // Give t2 a head start on node 0 so it commits between t1's read and
  // validation.
  sim.Schedule(30 * kMicrosecond, [&]() {
    engine.Run(t2.get(), t2->Partitions(), 0, TwoPhaseEngine::Options{},
               [&](bool ok) { t2_committed = ok; });
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(t2_committed);
  EXPECT_FALSE(t1_committed);
  EXPECT_EQ(metrics.aborts(), 1u);
}

TEST(TwoPhaseEngineTest, GroupCommitDelaysVisibility) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  auto txn = MakeTxn(1, {{0, 1, OpType::kWrite}});
  TwoPhaseEngine::Options opts;
  opts.group_commit_visibility = true;
  SimTime done_at = -1;
  engine.Run(txn.get(), txn->Partitions(), 0, opts, [&](bool) { done_at = sim.Now(); });
  sim.RunUntil(5 * cfg.epoch_interval);
  EXPECT_EQ(done_at, cfg.epoch_interval);  // held until the epoch boundary
  EXPECT_GT(txn->breakdown().replication, 0);
}

TEST(TwoPhaseEngineTest, EmptyTxnCommitsTrivially) {
  Simulator sim;
  Cluster cluster(&sim, TestConfig());
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);
  auto txn = MakeTxn(1, {});
  bool committed = false;
  engine.Run(txn.get(), txn->Partitions(), 0, TwoPhaseEngine::Options{}, [&](bool ok) { committed = ok; });
  sim.RunUntilIdle();
  EXPECT_TRUE(committed);
}

TEST(TwoPhaseEngineTest, BreakdownCoversLatency) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);
  auto txn = MakeTxn(1, {{0, 2, OpType::kWrite}, {1, 3, OpType::kWrite}});
  bool done = false;
  engine.Run(txn.get(), txn->Partitions(), 0, TwoPhaseEngine::Options{}, [&](bool) { done = true; });
  sim.RunUntilIdle();
  ASSERT_TRUE(done);
  const auto& bd = txn->breakdown();
  EXPECT_GT(bd.execution, 0);
  EXPECT_GT(bd.commit + bd.replication, 0);
}

// --- 2PC protocol + driver end to end -------------------------------------------

TEST(TwoPcProtocolTest, ClosedLoopCommitsTransactions) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPcProtocol protocol(&cluster, &metrics);

  YcsbConfig ycfg;
  ycfg.ops_per_txn = 6;
  ycfg.cross_ratio = 0.5;
  YcsbWorkload workload(cfg, ycfg);

  ClosedLoopDriver driver(&sim, &protocol, &workload, &metrics, 8);
  driver.Start();
  sim.RunUntil(1 * kSecond);
  driver.Stop();
  sim.RunUntil(2 * kSecond);

  EXPECT_GT(metrics.committed(), 100u);
  EXPECT_GT(metrics.distributed(), 0u);
  EXPECT_GT(metrics.single_node(), 0u);
  EXPECT_EQ(driver.completed(), metrics.committed());
}

TEST(TwoPcProtocolTest, RetriesEventuallyCommitUnderContention) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  cfg.records_per_partition = 8;  // tiny keyspace: heavy conflicts
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPcProtocol protocol(&cluster, &metrics);

  YcsbConfig ycfg;
  ycfg.ops_per_txn = 4;
  ycfg.cross_ratio = 1.0;
  YcsbWorkload workload(cfg, ycfg);

  ClosedLoopDriver driver(&sim, &protocol, &workload, &metrics, 16);
  driver.Start();
  sim.RunUntil(1 * kSecond);
  driver.Stop();
  sim.RunUntil(3 * kSecond);

  EXPECT_GT(metrics.committed(), 50u);
  EXPECT_GT(metrics.aborts(), 0u);  // contention must be visible
}

TEST(TwoPcProtocolTest, SingleNodeWorkloadAvoidsDistributed) {
  Simulator sim;
  ClusterConfig cfg = TestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPcProtocol protocol(&cluster, &metrics);

  YcsbConfig ycfg;
  ycfg.cross_ratio = 0.0;
  YcsbWorkload workload(cfg, ycfg);
  ClosedLoopDriver driver(&sim, &protocol, &workload, &metrics, 8);
  driver.Start();
  sim.RunUntil(500 * kMillisecond);
  EXPECT_GT(metrics.committed(), 0u);
  EXPECT_EQ(metrics.distributed(), 0u);
}

}  // namespace
}  // namespace lion
