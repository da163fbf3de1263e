// Failure injection tests: secondary election on node failure, availability
// of the surviving replicas, and protocol behaviour across a failover.
#include <gtest/gtest.h>

#include "harness/driver.h"
#include "metrics/metrics.h"
#include "core/lion_protocol.h"
#include "protocols/twopc.h"
#include "replication/cluster.h"
#include "replication/failure_injector.h"
#include "workload/ycsb.h"

namespace lion {
namespace {

ClusterConfig Cfg(int replicas = 2) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.partitions_per_node = 2;
  cfg.records_per_partition = 500;
  cfg.record_bytes = 100;
  cfg.init_replicas = replicas;
  cfg.remaster_base_delay = 1 * kMillisecond;
  return cfg;
}

TEST(FailureTest, FailoverElectsSecondary) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  FailureInjector chaos(&cluster);

  // Node 0 masters partitions 0 and 3 (round-robin); their secondaries sit
  // on node 1.
  chaos.FailNode(0);
  EXPECT_TRUE(chaos.IsDown(0));
  // Elections are in flight: partitions blocked.
  EXPECT_TRUE(cluster.remaster().IsBlocked(0));
  sim.RunUntilIdle();

  EXPECT_EQ(chaos.failovers_completed(), 2u);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_EQ(cluster.router().PrimaryOf(3), 1);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
  // The dead node no longer appears in any replica group.
  for (PartitionId p = 0; p < cluster.num_partitions(); ++p) {
    EXPECT_FALSE(cluster.router().HasReplica(0, p)) << "partition " << p;
  }
}

TEST(FailureTest, ElectionPrefersMostCaughtUpSecondary) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  FailureInjector chaos(&cluster);

  // Give partition 0 two secondaries with different lag.
  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->AddSecondary(2, 0);
  g->Advance(100);
  g->Ack(1, 40);
  g->Ack(2, 90);  // node 2 is the most caught up

  chaos.FailNode(0);
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.router().PrimaryOf(0), 2);
}

TEST(FailureTest, LagExtendsElectionTime) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  FailureInjector chaos(&cluster);
  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->Advance(20000);  // secondary lags by 20,000 entries: 2 ms at 100 ns

  chaos.FailNode(0);
  sim.RunUntilIdle();
  EXPECT_GE(sim.Now(), cfg.remaster_base_delay +
                           20000 * ClusterConfig::remaster_per_entry);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
}

TEST(FailureTest, SingleReplicaPartitionBecomesUnavailable) {
  Simulator sim;
  ClusterConfig cfg = Cfg(/*replicas=*/1);  // no secondaries anywhere
  Cluster cluster(&sim, cfg);
  FailureInjector chaos(&cluster);

  chaos.FailNode(0);
  sim.RunUntilIdle();
  EXPECT_EQ(chaos.failovers_completed(), 0u);
  EXPECT_EQ(chaos.partitions_unavailable(), 2u);  // partitions 0 and 3
  EXPECT_TRUE(cluster.remaster().IsBlocked(0));

  // Recovery restores availability.
  chaos.RecoverNode(0);
  EXPECT_EQ(chaos.partitions_unavailable(), 0u);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

TEST(FailureTest, TransactionsContinueAfterFailover) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPcProtocol protocol(&cluster, &metrics);
  FailureInjector chaos(&cluster);

  YcsbConfig ycfg;
  ycfg.ops_per_txn = 4;
  ycfg.cross_ratio = 0.3;
  YcsbWorkload workload(cfg, ycfg);
  ClosedLoopDriver driver(&sim, &protocol, &workload, &metrics, 12);
  driver.Start();

  sim.Schedule(500 * kMillisecond, [&]() { chaos.FailNode(0); });
  sim.RunUntil(500 * kMillisecond);
  uint64_t before = metrics.committed();
  sim.RunUntil(1500 * kMillisecond);
  driver.Stop();
  sim.RunUntil(2 * kSecond);

  // Commits kept flowing after the failure (served by the two survivors).
  EXPECT_GT(metrics.committed(), before + 100);
  EXPECT_EQ(chaos.failovers_completed(), 2u);
  for (PartitionId p = 0; p < cluster.num_partitions(); ++p) {
    EXPECT_NE(cluster.router().PrimaryOf(p), 0) << "partition " << p;
  }
}

TEST(FailureTest, LionAdaptsAroundFailedNode) {
  // Full-stack: Lion with its planner running when a node dies. Failover
  // elects secondaries, the planner replans around the survivor set, and
  // transactions keep committing.
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  LionOptions opts;
  opts.planner.interval = 200 * kMillisecond;
  opts.planner.min_history = 32;
  LionProtocol lion(&cluster, &metrics, opts);
  lion.Start();
  FailureInjector chaos(&cluster);

  YcsbConfig ycfg;
  ycfg.ops_per_txn = 4;
  ycfg.cross_ratio = 0.5;
  YcsbWorkload workload(cfg, ycfg);
  ClosedLoopDriver driver(&sim, &lion, &workload, &metrics, 12);
  driver.Start();

  sim.Schedule(600 * kMillisecond, [&]() { chaos.FailNode(2); });
  sim.RunUntil(600 * kMillisecond);
  uint64_t before = metrics.committed();
  sim.RunUntil(2 * kSecond);
  driver.Stop();
  sim.RunUntil(2500 * kMillisecond);

  EXPECT_GT(metrics.committed(), before + 100);
  for (PartitionId p = 0; p < cluster.num_partitions(); ++p) {
    EXPECT_NE(cluster.router().PrimaryOf(p), 2) << "partition " << p;
    EXPECT_FALSE(cluster.remaster().IsBlocked(p)) << "partition " << p;
  }
  EXPECT_GT(lion.planner()->plans_generated(), 0u);
}

TEST(FailureTest, DoubleFailureIsIdempotent) {
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  FailureInjector chaos(&cluster);
  chaos.FailNode(0);
  chaos.FailNode(0);  // no-op
  sim.RunUntilIdle();
  EXPECT_EQ(chaos.failovers_completed(), 2u);
}

TEST(FailureTest, ElectionRerunsWhenCandidateDiesMidElection) {
  // The election race: node 0 dies, the election picks node 1, and node 1
  // dies before the promotion fires. The fire-time liveness re-validation
  // must re-run the election and elect node 2 instead of promoting a corpse.
  Simulator sim;
  ClusterConfig cfg = Cfg(/*replicas=*/3);  // partition 0: primary 0, secs 1,2
  Cluster cluster(&sim, cfg);
  FailureInjector chaos(&cluster);

  chaos.FailNode(0);  // promotion scheduled at +1ms (remaster_base_delay)
  sim.Schedule(500 * kMicrosecond, [&]() { chaos.FailNode(1); });
  sim.RunUntilIdle();

  EXPECT_GE(chaos.elections_rerun(), 1u);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 2);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
  EXPECT_EQ(chaos.partitions_unavailable(), 0u);
}

TEST(FailureTest, MigrationTargetDiesMidFlight) {
  // MovePrimary to node 2 is in flight when node 2 crashes: the migration
  // must abort cleanly (done(false)), release the block, and leave
  // the original primary in place — no leaked waiters, no double block.
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  FailureInjector chaos(&cluster);

  bool done_called = false, done_ok = true;
  cluster.migration().MovePrimary(0, 2, [&](bool ok) {
    done_called = true;
    done_ok = ok;
  });
  EXPECT_TRUE(cluster.remaster().IsBlocked(0));
  sim.Schedule(200 * kMicrosecond, [&]() { chaos.FailNode(2); });
  sim.RunUntilIdle();

  EXPECT_TRUE(done_called);
  EXPECT_FALSE(done_ok);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 0);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

TEST(FailureTest, PrimaryDiesMidMigrationFailoverTakesOver) {
  // The source primary dies while its partition is mid-migration. The
  // failover bumps the reconfiguration generation, so the stale migration
  // completion must back off and the failover owns the block.
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  FailureInjector chaos(&cluster);

  bool done_called = false, done_ok = true;
  cluster.migration().MovePrimary(0, 2, [&](bool ok) {
    done_called = true;
    done_ok = ok;
  });
  sim.Schedule(200 * kMicrosecond, [&]() { chaos.FailNode(0); });
  sim.RunUntilIdle();

  EXPECT_TRUE(done_called);
  EXPECT_FALSE(done_ok);
  // The failover elected the surviving secondary (node 1), not the
  // migration target whose copy never registered.
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
  EXPECT_GE(chaos.failovers_completed(), 1u);
}

TEST(FailureTest, RecoveryOrderIsIndependent) {
  // Two nodes fail in order 0, 1 and recover in order 1, 0; availability
  // must return per-node, not only once the first-failed node is back.
  Simulator sim;
  ClusterConfig cfg = Cfg(/*replicas=*/1);  // no secondaries: crash = outage
  Cluster cluster(&sim, cfg);
  FailureInjector chaos(&cluster);

  chaos.FailNode(0);  // partitions 0, 3 unavailable
  chaos.FailNode(1);  // partitions 1, 4 unavailable
  sim.RunUntilIdle();
  EXPECT_EQ(chaos.partitions_unavailable(), 4u);

  chaos.RecoverNode(1);
  sim.RunUntilIdle();
  EXPECT_EQ(chaos.partitions_unavailable(), 2u);
  EXPECT_FALSE(cluster.remaster().IsBlocked(1));
  EXPECT_FALSE(cluster.remaster().IsBlocked(4));
  EXPECT_TRUE(cluster.remaster().IsBlocked(0));

  chaos.RecoverNode(0);
  sim.RunUntilIdle();
  EXPECT_EQ(chaos.partitions_unavailable(), 0u);
  for (PartitionId p = 0; p < cluster.num_partitions(); ++p) {
    EXPECT_FALSE(cluster.remaster().IsBlocked(p)) << "partition " << p;
  }
}

TEST(FailureTest, CascadingFailureWithThreeReplicas) {
  Simulator sim;
  ClusterConfig cfg = Cfg(/*replicas=*/3);
  Cluster cluster(&sim, cfg);
  FailureInjector chaos(&cluster);

  chaos.FailNode(0);
  sim.RunUntilIdle();
  NodeId new_primary = cluster.router().PrimaryOf(0);
  EXPECT_NE(new_primary, 0);
  chaos.FailNode(new_primary);
  sim.RunUntilIdle();
  // The third copy takes over.
  NodeId final_primary = cluster.router().PrimaryOf(0);
  EXPECT_NE(final_primary, 0);
  EXPECT_NE(final_primary, new_primary);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

}  // namespace
}  // namespace lion
