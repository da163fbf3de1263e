// Tests for replica groups, the router table, replication (group commit),
// remastering, and migration.
#include <gtest/gtest.h>

#include <vector>

#include "replication/cluster.h"
#include "replication/failure_injector.h"
#include "replication/replica_group.h"
#include "replication/router_table.h"
#include "sim/simulator.h"
#include "txn/occ.h"
#include "txn/transaction.h"

namespace lion {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.partitions_per_node = 2;
  cfg.records_per_partition = 100;
  cfg.record_bytes = 100;
  cfg.init_replicas = 2;
  cfg.max_replicas = 3;
  return cfg;
}

// --- ReplicaGroup -------------------------------------------------------------

TEST(ReplicaGroupTest, InitialState) {
  ReplicaGroup g(7, 2);
  EXPECT_EQ(g.partition(), 7);
  EXPECT_EQ(g.primary(), 2);
  EXPECT_EQ(g.primary_lsn(), 0u);
  EXPECT_EQ(g.LiveReplicaCount(), 1);
  EXPECT_TRUE(g.HasReplica(2));
  EXPECT_FALSE(g.HasSecondary(2));
}

TEST(ReplicaGroupTest, AddAndRemoveSecondary) {
  ReplicaGroup g(0, 0);
  g.AddSecondary(1, 0);
  EXPECT_TRUE(g.HasSecondary(1));
  EXPECT_EQ(g.LiveReplicaCount(), 2);
  g.RemoveSecondary(1);
  EXPECT_FALSE(g.HasSecondary(1));
  EXPECT_EQ(g.LiveReplicaCount(), 1);
}

TEST(ReplicaGroupTest, AddSecondaryOnPrimaryIsNoop) {
  ReplicaGroup g(0, 0);
  g.AddSecondary(0, 0);
  EXPECT_EQ(g.LiveReplicaCount(), 1);
}

TEST(ReplicaGroupTest, LagTracksAdvanceAndAck) {
  ReplicaGroup g(0, 0);
  g.AddSecondary(1, 0);
  g.Advance(10);
  EXPECT_EQ(g.LagOf(1), 10u);
  g.Ack(1, 6);
  EXPECT_EQ(g.LagOf(1), 4u);
  g.Ack(1, 3);  // stale ack must not regress
  EXPECT_EQ(g.LagOf(1), 4u);
}

TEST(ReplicaGroupTest, DeleteFlagExcludesFromLive) {
  ReplicaGroup g(0, 0);
  g.AddSecondary(1, 0);
  g.AddSecondary(2, 0);
  g.FlagForDelete(1);
  EXPECT_FALSE(g.HasSecondary(1));
  EXPECT_TRUE(g.HasReplica(1));  // still physically present
  EXPECT_EQ(g.LiveReplicaCount(), 2);
}

TEST(ReplicaGroupTest, ReAddClearsDeleteFlag) {
  ReplicaGroup g(0, 0);
  g.AddSecondary(1, 0);
  g.FlagForDelete(1);
  g.AddSecondary(1, 5);
  EXPECT_TRUE(g.HasSecondary(1));
}

TEST(ReplicaGroupTest, PromoteSwapsRoles) {
  ReplicaGroup g(0, 0);
  g.AddSecondary(1, 0);
  g.Advance(5);
  g.Ack(1, 5);
  g.Promote(1);
  EXPECT_EQ(g.primary(), 1);
  EXPECT_TRUE(g.HasSecondary(0));
  EXPECT_EQ(g.LagOf(0), 0u);  // old primary is fully caught up by definition
  EXPECT_EQ(g.LiveReplicaCount(), 2);
}

// --- RouterTable --------------------------------------------------------------

TEST(RouterTableTest, RoundRobinPlacement) {
  RouterTable table(3, 6);
  table.InitRoundRobin(2);
  for (PartitionId p = 0; p < 6; ++p) {
    EXPECT_EQ(table.PrimaryOf(p), p % 3);
    EXPECT_TRUE(table.HasSecondary((p + 1) % 3, p));
    EXPECT_EQ(table.group(p).LiveReplicaCount(), 2);
  }
  EXPECT_EQ(table.TotalLiveReplicas(), 12);
}

TEST(RouterTableTest, RoundRobinCapsAtNodeCount) {
  RouterTable table(2, 4);
  table.InitRoundRobin(5);  // only 2 nodes exist
  for (PartitionId p = 0; p < 4; ++p)
    EXPECT_EQ(table.group(p).LiveReplicaCount(), 2);
}

TEST(RouterTableTest, FrequencyNormalization) {
  RouterTable table(2, 4);
  for (int i = 0; i < 10; ++i) table.RecordAccess(0);
  for (int i = 0; i < 5; ++i) table.RecordAccess(1);
  EXPECT_DOUBLE_EQ(table.NormalizedFrequency(0), 1.0);
  EXPECT_DOUBLE_EQ(table.NormalizedFrequency(1), 0.5);
  EXPECT_DOUBLE_EQ(table.NormalizedFrequency(2), 0.0);
}

TEST(RouterTableTest, DecayScalesCounts) {
  RouterTable table(2, 2);
  for (int i = 0; i < 8; ++i) table.RecordAccess(0);
  table.DecayFrequencies(0.5);
  EXPECT_DOUBLE_EQ(table.RawFrequency(0), 4.0);
}

TEST(RouterTableTest, PrimariesOnListsANodesPrimaries) {
  RouterTable table(2, 4);  // primaries: 0->0, 1->1, 2->0, 3->1
  EXPECT_EQ(table.PrimariesOn(0), (std::vector<PartitionId>{0, 2}));
  EXPECT_EQ(table.PrimariesOn(1), (std::vector<PartitionId>{1, 3}));
}

TEST(RouterTableTest, MostPrimariesNode) {
  RouterTable table(3, 6);  // primaries: p -> p % 3
  int hosted = -1;
  // Partitions 0,3 -> node 0; partition 1 -> node 1.
  EXPECT_EQ(table.MostPrimariesNode({0, 1, 3}, &hosted), 0);
  EXPECT_EQ(hosted, 2);
  // All on node 2: one node hosts every primary.
  EXPECT_EQ(table.MostPrimariesNode({2, 5}, &hosted), 2);
  EXPECT_EQ(hosted, 2);
  // A tie goes to the lowest node id.
  EXPECT_EQ(table.MostPrimariesNode({1, 2}, &hosted), 1);
  EXPECT_EQ(hosted, 1);
  EXPECT_EQ(table.MostPrimariesNode({5, 4}), 1);
}

// --- ReplicationManager (epoch group commit) ----------------------------------

TEST(ReplicationTest, EpochShipsLogAndAdvancesSecondaryLsn) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();

  cluster.replication().Append(0, 1, 100);
  cluster.replication().Append(0, 2, 200);
  EXPECT_EQ(cluster.router().group(0).primary_lsn(), 2u);
  EXPECT_EQ(cluster.router().group(0).LagOf(1), 2u);  // secondary of p0 on n1

  sim.RunUntil(cfg.epoch_interval + 10 * kMillisecond);
  EXPECT_EQ(cluster.router().group(0).LagOf(1), 0u);
  EXPECT_EQ(cluster.replication().total_entries_shipped(), 2u);
}

TEST(ReplicationTest, MaterializedSecondariesMatchPrimary) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  cfg.materialize_secondaries = true;
  Cluster cluster(&sim, cfg);
  cluster.Start();

  const Version installed = cluster.store(0)->Apply(5);
  EXPECT_EQ(installed, 2u);
  cluster.replication().Append(0, 5, installed);
  sim.RunUntil(cfg.epoch_interval + 10 * kMillisecond);

  const auto* copy = cluster.replication().MaterializedCopy(0, 1);
  ASSERT_NE(copy, nullptr);
  ASSERT_TRUE(copy->count(5));
  EXPECT_EQ(copy->at(5), cluster.store(0)->VersionOf(5));
}

// A materialized copy keeps, per key, the version of the last commit shipped
// to it: two commits to one key in one epoch ship in log order, so the copy
// holds the second; a commit in the next epoch replaces it on the next
// shipment, and until then the copy keeps the old version.
TEST(ReplicationTest, MaterializedCopyHoldsTheLastInstalledVersion) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  cfg.materialize_secondaries = true;
  Cluster cluster(&sim, cfg);
  cluster.Start();
  PartitionStore* store = cluster.store(0);
  const Key key = 5;
  auto commit = [&](TxnId id) {
    Transaction txn(id, sim.Now());
    Operation op;
    op.partition = 0;
    op.key = key;
    op.type = OpType::kWrite;
    txn.ops().push_back(op);
    Occ::ReadOps(store, &txn);
    ASSERT_TRUE(Occ::ValidateAndLock(store, &txn));
    Occ::ApplyAndUnlock(store, &txn, &cluster.replication());
  };
  auto copied = [&]() -> Version {
    const auto* copy = cluster.replication().MaterializedCopy(0, 1);
    if (copy == nullptr || copy->count(key) == 0) return 0;
    return copy->at(key);
  };

  commit(1);
  commit(2);
  EXPECT_EQ(store->VersionOf(key), 3u);
  EXPECT_EQ(copied(), 0u);  // nothing ships before the epoch ends
  sim.RunUntil(cfg.epoch_interval + 10 * kMillisecond);
  EXPECT_EQ(cluster.router().group(0).LagOf(1), 0u);
  EXPECT_EQ(copied(), store->VersionOf(key));

  commit(3);
  EXPECT_EQ(store->VersionOf(key), 4u);
  EXPECT_EQ(copied(), 3u);  // the next shipment has not landed yet
  sim.RunUntil(sim.Now() + cfg.epoch_interval + 10 * kMillisecond);
  EXPECT_EQ(cluster.router().group(0).LagOf(1), 0u);
  EXPECT_EQ(copied(), store->VersionOf(key));
  EXPECT_EQ(cluster.replication().total_entries_shipped(), 3u);
}

TEST(ReplicationTest, OnEpochEndFiresAtBoundary) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  SimTime fired = -1;
  cluster.replication().OnEpochEnd([&]() { fired = sim.Now(); });
  sim.RunUntil(3 * cfg.epoch_interval);
  EXPECT_EQ(fired, cfg.epoch_interval);
}

TEST(ReplicationTest, DeleteFlaggedReplicaStopsReceiving) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  cluster.router().mutable_group(0)->FlagForDelete(1);
  cluster.replication().Append(0, 1, 42);
  sim.RunUntil(2 * cfg.epoch_interval);
  // The flagged secondary never acked, so its lag persists.
  EXPECT_EQ(cluster.router().group(0).primary_lsn(), 1u);
  for (const auto& s : cluster.router().group(0).secondaries()) {
    if (s.node == 1) {
      EXPECT_EQ(s.applied_lsn, 0u);
    }
  }
}

// --- RemasterManager ----------------------------------------------------------

TEST(RemasterTest, PromotesSecondaryAfterDelay) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();

  bool ok = false;
  SimTime done_at = -1;
  // Partition 0: primary n0, secondary n1.
  cluster.remaster().Remaster(0, 1, [&](bool success) {
    ok = success;
    done_at = sim.Now();
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_TRUE(cluster.router().HasSecondary(0, 0));
  EXPECT_GE(done_at, cfg.remaster_base_delay);
  EXPECT_EQ(cluster.remaster().remasters_completed(), 1u);
}

TEST(RemasterTest, RemasterToPrimaryIsInstantSuccess) {
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  bool ok = false;
  cluster.remaster().Remaster(0, 0, [&](bool success) { ok = success; });
  EXPECT_TRUE(ok);  // synchronous: already primary
}

TEST(RemasterTest, FailsWithoutSecondary) {
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  // Partition 0 replicas on n0 (primary), n1 (secondary); n2 has none.
  bool called = false, ok = true;
  cluster.remaster().Remaster(0, 2, [&](bool success) {
    called = true;
    ok = success;
  });
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_EQ(cluster.remaster().remasters_failed(), 1u);
}

TEST(RemasterTest, ConcurrentRemasterConflictFirstWins) {
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  ClusterConfig cfg = SmallConfig();
  // Give partition 0 a second secondary so both targets are plausible.
  cluster.router().mutable_group(0)->AddSecondary(2, 0);

  bool first_ok = false, second_ok = true;
  cluster.remaster().Remaster(0, 1, [&](bool s) { first_ok = s; });
  cluster.remaster().Remaster(0, 2, [&](bool s) { second_ok = s; });
  sim.RunUntilIdle();
  EXPECT_TRUE(first_ok);
  EXPECT_FALSE(second_ok);  // conflict: the partition was being remastered
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  (void)cfg;
}

TEST(RemasterTest, BlocksAndReleasesWaiters) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();

  std::vector<SimTime> waiter_times;
  cluster.remaster().Remaster(0, 1, [](bool) {});
  EXPECT_TRUE(cluster.remaster().IsBlocked(0));
  cluster.remaster().WaitUntilAvailable(0, [&]() { waiter_times.push_back(sim.Now()); });
  cluster.remaster().WaitUntilAvailable(1, [&]() { waiter_times.push_back(sim.Now()); });
  EXPECT_EQ(waiter_times.size(), 1u);  // partition 1 is free: runs immediately
  sim.RunUntilIdle();
  ASSERT_EQ(waiter_times.size(), 2u);
  EXPECT_GE(waiter_times[1], cfg.remaster_base_delay);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

TEST(RemasterTest, EndReconfigWithSupersededTokenKeepsBlock) {
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  ReplicaGroup* g = cluster.router().mutable_group(0);
  const uint64_t stale = g->BeginReconfig();
  bool ran = false;
  cluster.remaster().WaitUntilAvailable(0, [&]() { ran = true; });
  const uint64_t current = g->BeginReconfig();  // e.g. a preempting failover

  EXPECT_FALSE(cluster.remaster().EndReconfig(0, stale));
  EXPECT_TRUE(cluster.remaster().IsBlocked(0));
  EXPECT_FALSE(ran);

  EXPECT_TRUE(cluster.remaster().EndReconfig(0, current));
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
  EXPECT_TRUE(ran);
  EXPECT_FALSE(cluster.remaster().EndReconfig(0, current));  // already ended
}

TEST(RemasterTest, LagIncreasesRemasterDuration) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);

  // Build up lag on partition 0's secondary (n1): append without shipping.
  // 10,000 entries at 100 ns each add 1 ms, far above the message delays.
  for (int i = 0; i < 10000; ++i) cluster.replication().Append(0, i, i);

  SimTime done_at = -1;
  cluster.remaster().Remaster(0, 1, [&](bool) { done_at = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_GE(done_at, cfg.remaster_base_delay +
                        10000 * ClusterConfig::remaster_per_entry);
}

// --- MigrationManager ---------------------------------------------------------

TEST(MigrationTest, AddReplicaRegistersSecondary) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();

  bool ok = false;
  cluster.migration().AddReplica(0, 2, [&](bool s) { ok = s; });
  EXPECT_FALSE(cluster.router().HasSecondary(2, 0));  // async: not yet
  sim.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(cluster.router().HasSecondary(2, 0));
  EXPECT_EQ(cluster.migration().migrations_completed(), 1u);
  EXPECT_EQ(cluster.migration().migrated_bytes(),
            cfg.records_per_partition * cfg.record_bytes);
}

TEST(MigrationTest, AddReplicaDoesNotBlockWrites) {
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  cluster.migration().AddReplica(0, 2, [](bool) {});
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

TEST(MigrationTest, AddReplicaOnExistingHostSucceedsImmediately) {
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  bool ok = false;
  cluster.migration().AddReplica(0, 1, [&](bool s) { ok = s; });  // n1 already secondary
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.migration().migrations_completed(), 0u);
}

TEST(MigrationTest, AddReplicaAtLimitEvictsOneOtherSecondary) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  cfg.max_replicas = 2;  // partition 0 (n0 primary, n1 secondary) is full
  Cluster cluster(&sim, cfg);

  bool ok = false;
  int live_at_done = 0;
  cluster.migration().AddReplica(0, 2, [&](bool s) {
    ok = s;
    live_at_done = cluster.router().group(0).LiveReplicaCount();
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(live_at_done, 2);  // the victim is flagged before done runs
  EXPECT_EQ(cluster.migration().evictions(), 1u);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 0);
  EXPECT_TRUE(cluster.router().HasSecondary(2, 0));  // the new copy stays
  EXPECT_FALSE(cluster.router().HasReplica(1, 0));   // n1 was the victim
}

TEST(MigrationTest, AddReplicaFailsWhileThePrimaryIsDown) {
  // The copy streams from the primary. Right after it crashes, with the
  // failover still in flight, there is nothing to copy from.
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  cluster.Start();
  FailureInjector chaos(&cluster);
  chaos.FailNode(0);  // primary of partitions 0 and 3

  bool called = false;
  bool ok = true;
  cluster.migration().AddReplica(0, 2, [&](bool s) {
    called = true;
    ok = s;
  });
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  sim.RunUntilIdle();
  EXPECT_EQ(chaos.failovers_completed(), 2u);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_FALSE(cluster.router().HasReplica(2, 0));
  EXPECT_EQ(cluster.migration().migrations_completed(), 0u);
  EXPECT_EQ(cluster.migration().migrated_bytes(), 0u);
}

TEST(MigrationTest, AddReplicaGivesAnUnavailablePartitionNoSecondary) {
  // With one copy per partition, the crash leaves partitions 0 and 3 with
  // no surviving replica: nothing may be copied from the dead primary.
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  cfg.init_replicas = 1;
  Cluster cluster(&sim, cfg);
  cluster.Start();
  FailureInjector chaos(&cluster);
  chaos.FailNode(0);
  sim.RunUntilIdle();
  ASSERT_EQ(chaos.partitions_unavailable(), 2u);

  bool ok = true;
  cluster.migration().AddReplica(0, 2, [&](bool s) { ok = s; });
  sim.RunUntilIdle();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(cluster.router().HasReplica(2, 0));
  EXPECT_EQ(cluster.router().group(0).LiveReplicaCount(), 1);
  EXPECT_TRUE(cluster.remaster().IsBlocked(0));
  EXPECT_EQ(cluster.migration().migrations_completed(), 0u);
}

TEST(MigrationTest, AddReplicaFailsWhenTheSourceCrashesMidCopy) {
  // The network still delivers what a crashed node sent, so the copy lands;
  // it must not register a replica copied from a failed primary.
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  cluster.Start();
  FailureInjector chaos(&cluster);

  bool called = false;
  bool ok = true;
  cluster.migration().AddReplica(0, 2, [&](bool s) {
    called = true;
    ok = s;
  });
  sim.Schedule(kMicrosecond, [&]() { chaos.FailNode(0); });
  sim.RunUntilIdle();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_FALSE(cluster.router().HasReplica(2, 0));
  EXPECT_EQ(cluster.migration().migrations_completed(), 0u);
}

TEST(MigrationTest, MovePrimaryWithoutReplicaBlocksDuringTransfer) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();

  bool ok = false;
  cluster.migration().MovePrimary(0, 2, [&](bool s) { ok = s; });
  EXPECT_TRUE(cluster.remaster().IsBlocked(0));  // Leap/Clay-style downtime
  sim.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 2);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

TEST(MigrationTest, MovePrimaryUsesRemasterWhenSecondaryExists) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();

  bool ok = false;
  cluster.migration().MovePrimary(0, 1, [&](bool s) { ok = s; });  // n1 = secondary
  sim.RunUntilIdle();
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_EQ(cluster.remaster().remasters_completed(), 1u);
  EXPECT_EQ(cluster.migration().migrations_completed(), 0u);  // no copy needed
}

TEST(MigrationTest, EvictionFlagsWorstLaggingSecondary) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  cfg.max_replicas = 2;
  Cluster cluster(&sim, cfg);

  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->AddSecondary(2, 0);
  g->Advance(10);
  g->Ack(1, 10);  // n1 caught up; n2 lags by 10
  EXPECT_EQ(g->LiveReplicaCount(), 3);

  NodeId victim = cluster.migration().EvictIfOverLimit(0, 1);
  EXPECT_EQ(victim, 2);
  EXPECT_EQ(g->LiveReplicaCount(), 2);
  EXPECT_EQ(cluster.migration().evictions(), 1u);
}

TEST(MigrationTest, EvictionRespectsKeepNode) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  cfg.max_replicas = 2;
  Cluster cluster(&sim, cfg);
  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->AddSecondary(2, 0);
  NodeId victim = cluster.migration().EvictIfOverLimit(0, 2);
  EXPECT_EQ(victim, 1);  // n2 protected by keep
}

TEST(MigrationTest, NoEvictionUnderLimit) {
  Simulator sim;
  Cluster cluster(&sim, SmallConfig());
  EXPECT_EQ(cluster.migration().EvictIfOverLimit(0, kInvalidNode), kInvalidNode);
}

// --- Cluster assembly ----------------------------------------------------------

TEST(ClusterTest, TopologyMatchesConfig) {
  Simulator sim;
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(&sim, cfg);
  EXPECT_EQ(cluster.num_nodes(), 3);
  EXPECT_EQ(cluster.num_partitions(), 6);
  for (PartitionId p = 0; p < 6; ++p) {
    EXPECT_EQ(cluster.store(p)->id(), p);
    EXPECT_EQ(cluster.PrimaryOf(p), p % 3);
  }
}

}  // namespace
}  // namespace lion
