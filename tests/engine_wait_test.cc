// Interplay between transaction execution and partition blocking: operations
// must wait out in-flight remastering (split-brain avoidance, Sec. III), and
// execution resumes correctly against the post-remaster placement.
#include <gtest/gtest.h>

#include "metrics/metrics.h"
#include "replication/cluster.h"
#include "sim/simulator.h"
#include "txn/two_phase_engine.h"

namespace lion {
namespace {

ClusterConfig Cfg() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.partitions_per_node = 1;
  cfg.records_per_partition = 100;
  cfg.record_bytes = 100;
  cfg.remaster_base_delay = 2 * kMillisecond;
  return cfg;
}

TxnPtr WriteTxn(TxnId id, std::vector<PartitionId> parts, Key key = 5) {
  auto txn = std::make_unique<Transaction>(id, 0);
  for (PartitionId pid : parts) {
    Operation op;
    op.partition = pid;
    op.key = key;
    op.type = OpType::kWrite;
    txn->ops().push_back(op);
  }
  return txn;
}

TEST(EngineWaitTest, LocalExecutionWaitsForRemasterToFinish) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  // Block partition 0 by remastering it to its secondary (n1).
  cluster.remaster().Remaster(0, 1, [](bool) {});
  ASSERT_TRUE(cluster.remaster().IsBlocked(0));

  // A transaction on partition 0 submitted during the block: it must wait
  // at least the remaining remaster time before committing.
  auto txn = WriteTxn(1, {0});
  SimTime done_at = -1;
  bool committed = false;
  engine.Run(txn.get(), txn->Partitions(), cluster.PrimaryOf(0),
             TwoPhaseEngine::Options{}, [&](bool ok) {
               committed = ok;
               done_at = sim.Now();
             });
  sim.RunUntilIdle();
  EXPECT_TRUE(committed);
  EXPECT_GE(done_at, cfg.remaster_base_delay);
  // The write landed after the promotion; n1 is the primary now.
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_EQ(cluster.store(0)->VersionOf(5), 2u);
}

TEST(EngineWaitTest, RemoteExecutionWaitsForRemoteBlock) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  // Distributed txn from n0 touching partitions 0 (local) and 1 (remote,
  // primary n1); partition 1 is mid-remaster to n2.
  cluster.remaster().Remaster(1, 2, [](bool) {});
  auto txn = WriteTxn(1, {0, 1});
  SimTime done_at = -1;
  engine.Run(txn.get(), txn->Partitions(), 0, TwoPhaseEngine::Options{},
             [&](bool ok) {
               EXPECT_TRUE(ok);
               done_at = sim.Now();
             });
  sim.RunUntilIdle();
  EXPECT_GE(done_at, cfg.remaster_base_delay);
  EXPECT_EQ(txn->exec_class(), ExecClass::kDistributed);
  EXPECT_EQ(cluster.store(1)->VersionOf(5), 2u);
}

TEST(EngineWaitTest, PrimaryMovedBetweenExecutionAndPrepareForcesRetry) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  cfg.remaster_base_delay = 10 * kMicrosecond;  // fast flip mid-transaction
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  // Distributed txn executing against partition 1's primary n1. Flip the
  // primary while the txn is in its execution round trips: the prepare
  // handler detects the stale participant and votes no.
  auto txn = WriteTxn(1, {0, 1});
  bool result = true;
  bool finished = false;
  engine.Run(txn.get(), txn->Partitions(), 0, TwoPhaseEngine::Options{},
             [&](bool ok) {
               result = ok;
               finished = true;
             });
  sim.Schedule(30 * kMicrosecond, [&]() {
    cluster.remaster().Remaster(1, 2, [](bool) {});
  });
  sim.RunUntilIdle();
  ASSERT_TRUE(finished);
  if (!result) {
    // Aborted because the participant moved: locks must all be free.
    EXPECT_FALSE(cluster.store(0)->IsLockedByOther(5, 999));
    EXPECT_FALSE(cluster.store(1)->IsLockedByOther(5, 999));
    EXPECT_GE(metrics.aborts(), 1u);
  }
}

TEST(EngineWaitTest, ManyWaitersAllReleased) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPhaseEngine engine(&cluster, &metrics);

  cluster.remaster().Remaster(0, 1, [](bool) {});
  int committed = 0;
  std::vector<TxnPtr> txns;
  for (int i = 0; i < 10; ++i) {
    txns.push_back(WriteTxn(i + 1, {0}, /*key=*/10 + i));  // disjoint keys
    engine.Run(txns.back().get(), txns.back()->Partitions(), 1,
               TwoPhaseEngine::Options{},
               [&](bool ok) { committed += ok ? 1 : 0; });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(committed, 10);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

}  // namespace
}  // namespace lion
