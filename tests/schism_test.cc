// Unit tests for the Schism-style replica-blind partitioner and its
// integration with the planner (Lion(S) ablation path).
#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/schism.h"
#include "replication/cluster.h"
#include "sim/simulator.h"

namespace lion {
namespace {

TEST(SchismTest, CoAccessedVerticesShareANode) {
  HeatGraph g;
  for (int i = 0; i < 50; ++i) {
    g.AddAccess({0, 1});
    g.AddAccess({2, 3});
  }
  RouterTable table(2, 4);
  SchismPartitioner schism;
  auto clumps = schism.Partition(g, table);
  ASSERT_EQ(clumps.size(), 2u);  // one clump per node
  // Each strongly-connected pair lands on one node.
  std::map<PartitionId, NodeId> where;
  for (const Clump& c : clumps)
    for (PartitionId p : c.pids) where[p] = c.dst;
  EXPECT_EQ(where[0], where[1]);
  EXPECT_EQ(where[2], where[3]);
  EXPECT_NE(where[0], where[2]);  // balance cap forces a split
}

TEST(SchismTest, RespectsBalanceCap) {
  HeatGraph g;
  // One heavy chain that would all fit on one node without the cap.
  for (int i = 0; i < 10; ++i) {
    g.AddAccess({0, 1});
    g.AddAccess({1, 2});
    g.AddAccess({2, 3});
    g.AddAccess({3, 4});
    g.AddAccess({4, 5});
  }
  RouterTable table(3, 6);
  SchismPartitioner schism;
  auto clumps = schism.Partition(g, table);
  // Capacity is a partition count: 6 partitions / 3 nodes * 1.25 = 2.5.
  for (const Clump& c : clumps) {
    EXPECT_LE(c.pids.size(), 2u) << "node " << c.dst;
  }
}

TEST(SchismTest, CoversEveryVertexExactlyOnce) {
  HeatGraph g;
  for (PartitionId p = 0; p < 9; ++p) g.AddAccess({p, (p + 1) % 9});
  RouterTable table(3, 9);
  SchismPartitioner schism;
  auto clumps = schism.Partition(g, table);
  std::set<PartitionId> seen;
  for (const Clump& c : clumps) {
    for (PartitionId p : c.pids) {
      EXPECT_TRUE(seen.insert(p).second) << "duplicate partition " << p;
    }
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(SchismTest, EmptyGraphYieldsEmptyClumps) {
  HeatGraph g;
  RouterTable table(2, 4);
  SchismPartitioner schism;
  auto clumps = schism.Partition(g, table);
  ASSERT_EQ(clumps.size(), 2u);
  for (const Clump& c : clumps) EXPECT_TRUE(c.pids.empty());
}

TEST(SchismPlannerTest, EmitsBlockingMoveEntries) {
  // Lion(S): the planner realizes Schism assignments with kMovePrimary
  // (full blocking migrations), since Schism ignores secondary replicas.
  Simulator sim;
  ClusterConfig ccfg;
  ccfg.num_nodes = 3;
  ccfg.partitions_per_node = 2;
  ccfg.records_per_partition = 200;
  ccfg.record_bytes = 100;
  Cluster cluster(&sim, ccfg);
  cluster.Start();

  PlannerConfig pcfg;
  pcfg.strategy = PartitioningStrategy::kSchism;
  pcfg.min_history = 8;
  Planner planner(&cluster, pcfg);
  // Partitions 0 (n0) and 1 (n1) heavily co-accessed: Schism co-locates
  // them, which requires moving at least one primary.
  for (int i = 0; i < 100; ++i) planner.RecordTxn({0, 1}, sim.Now());
  planner.RunOnce();
  sim.RunUntilIdle();

  EXPECT_EQ(planner.plans_generated(), 1u);
  EXPECT_EQ(cluster.router().PrimaryOf(0), cluster.router().PrimaryOf(1));
  uint64_t moves = 0;
  for (NodeId n = 0; n < 3; ++n) moves += planner.adaptor(n)->moves_started();
  EXPECT_GE(moves, 1u);
}

TEST(SchismPlannerTest, RearrangementStrategyAvoidsFullMoves) {
  // Contrast: the replica-aware strategy uses remasters/replica adds for the
  // same workload, never blocking full migrations.
  Simulator sim;
  ClusterConfig ccfg;
  ccfg.num_nodes = 3;
  ccfg.partitions_per_node = 2;
  ccfg.records_per_partition = 200;
  ccfg.record_bytes = 100;
  Cluster cluster(&sim, ccfg);
  cluster.Start();

  PlannerConfig pcfg;
  pcfg.strategy = PartitioningStrategy::kReplicaRearrangement;
  pcfg.min_history = 8;
  Planner planner(&cluster, pcfg);
  for (int i = 0; i < 100; ++i) planner.RecordTxn({0, 1}, sim.Now());
  planner.RunOnce();
  sim.RunUntilIdle();

  uint64_t moves = 0;
  for (NodeId n = 0; n < 3; ++n) moves += planner.adaptor(n)->moves_started();
  EXPECT_EQ(moves, 0u);
}

}  // namespace
}  // namespace lion
