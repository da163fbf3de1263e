// Durable log-backed recovery tests: the recovery log's fsync-horizon and
// snapshot+truncate accounting, crash replay + catch-up rejoin through the
// failure injector, the stale-election hazard fix, reconfiguration guards
// against recovering targets, double-crash races, and the recovery track
// end to end through the experiment harness — including that recovery-off
// runs emit no recovery fields and stay deterministic.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "replication/cluster.h"
#include "replication/failure_injector.h"
#include "replication/integrity.h"
#include "replication/recovery_log.h"
#include "result_members.h"

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

RecoveryConfig RCfg() {
  RecoveryConfig cfg;
  cfg.enabled = true;
  cfg.catch_up_batch = 16;
  return cfg;
}

// Appends `n` committed writes to `pid` through the replication manager, so
// the primary's LSN, the pending epoch batch and the recovery log all see
// them — exactly the path every protocol commit takes.
void AppendWrites(Cluster* cluster, PartitionId pid, int n) {
  for (int i = 0; i < n; ++i) {
    cluster->replication().Append(pid, static_cast<Key>(i % 10), 1);
  }
}

// --- recovery log unit tests -------------------------------------------------

TEST(RecoveryLogTest, DirtyCrashLosesOnlyTheUnsyncedSuffix) {
  Simulator sim;
  RecoveryConfig cfg = RCfg();
  cfg.durability_lag = 10 * kMillisecond;
  RecoveryLog log(&sim, cfg, /*num_nodes=*/2, /*num_partitions=*/1);

  log.AppendCommit(0, 0, /*key=*/1, /*lsn=*/1);
  log.AppendCommit(0, 0, /*key=*/2, /*lsn=*/2);
  sim.RunUntil(20 * kMillisecond);  // both entries age past the horizon
  log.AppendCommit(0, 0, /*key=*/3, /*lsn=*/3);  // younger than the horizon

  // Clean view: everything is durable. Dirty view: entry 3 is unsynced.
  EXPECT_EQ(log.DurableLsn(0, 0, /*dirty=*/false), 3u);
  EXPECT_EQ(log.DurableLsn(0, 0, /*dirty=*/true), 2u);

  log.Crash(0, /*dirty=*/true);
  EXPECT_EQ(log.DurableLsn(0, 0, true), 2u);
  EXPECT_EQ(log.DurableEntries(0), 2u);
  EXPECT_EQ(log.LostEntries(0), 1u);
  EXPECT_EQ(log.total_lost_entries(), 1u);
  // Lost entries stay accounted per key: 2 + lost 1 reconstruct the ledger.
  EXPECT_EQ(log.ReconstructWrites(0)[3], 1u);
}

TEST(RecoveryLogTest, ZeroDurabilityLagMakesDirtyCrashesLossless) {
  Simulator sim;
  RecoveryLog log(&sim, RCfg(), 2, 1);  // durability_lag = 0
  log.AppendCommit(0, 0, 1, 1);
  log.AppendCommit(0, 0, 2, 2);
  EXPECT_EQ(log.DurableLsn(0, 0, /*dirty=*/true), 2u);
  log.Crash(0, /*dirty=*/true);
  EXPECT_EQ(log.LostEntries(0), 0u);
  EXPECT_EQ(log.DurableEntries(0), 2u);
}

TEST(RecoveryLogTest, SnapshotTruncatePreservesAccounting) {
  Simulator sim;
  RecoveryLog log(&sim, RCfg(), 2, 1);
  log.AppendCommit(0, 0, 7, 1);
  log.AppendCommit(0, 0, 7, 2);
  log.AppendCommit(0, 0, 8, 3);

  log.SnapshotNode(0);
  EXPECT_EQ(log.snapshots_taken(), 1u);
  // Truncation folds the suffix into the snapshot; nothing is invented or
  // leaked, and the per-key reconstruction is unchanged.
  EXPECT_EQ(log.DurableEntries(0), 3u);
  auto writes = log.ReconstructWrites(0);
  EXPECT_EQ(writes[7], 2u);
  EXPECT_EQ(writes[8], 1u);
  EXPECT_EQ(log.DurableLsn(0, 0, /*dirty=*/true), 3u);

  // A dirty crash right after a snapshot loses nothing: the snapshot is the
  // fsync.
  log.Crash(0, /*dirty=*/true);
  EXPECT_EQ(log.LostEntries(0), 0u);
  writes = log.ReconstructWrites(0);
  EXPECT_EQ(writes[7], 2u);
  EXPECT_EQ(writes[8], 1u);
}

TEST(RecoveryLogTest, PeriodicSnapshotTimerRuns) {
  Simulator sim;
  RecoveryConfig cfg = RCfg();
  cfg.snapshot_interval = 5 * kMillisecond;
  RecoveryLog log(&sim, cfg, 2, 1);
  log.Start();
  log.AppendCommit(0, 0, 1, 1);
  sim.Schedule(20 * kMillisecond, []() {});  // keep the drain alive
  sim.RunUntil(21 * kMillisecond);
  EXPECT_GE(log.snapshots_taken(), 2u);  // 2 nodes x >= 1 pass each
  EXPECT_EQ(log.DurableEntries(0), 1u);
}

// --- crash replay + catch-up -------------------------------------------------

TEST(RecoveryTest, RecoveredNodeReplaysAndCatchesUp) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.EnableRecovery(RCfg());
  cluster.Start();
  FailureInjector chaos(&cluster);

  // 100 committed writes on partition 0 (primary node 0, secondary node 1),
  // shipped and acked through a few epochs.
  AppendWrites(&cluster, 0, 100);
  sim.RunUntil(50 * kMillisecond);
  ASSERT_EQ(cluster.router().group(0).AppliedLsnOf(1), 100u);

  // Node 1 crashes cleanly, then 60 more writes land while it is down.
  chaos.FailNode(1);
  sim.RunUntilIdle();
  AppendWrites(&cluster, 0, 60);
  sim.RunUntil(100 * kMillisecond);
  ASSERT_FALSE(cluster.router().group(0).HasReplica(1));

  // Recovery replays the durable prefix (LSN 100) and streams the missing
  // 60 entries from the live primary in catch_up_batch-sized shipments.
  chaos.RecoverNode(1);
  const ReplicaGroup& g = cluster.router().group(0);
  ASSERT_TRUE(g.HasSecondary(1));
  EXPECT_TRUE(g.IsRecovering(1));
  EXPECT_EQ(g.AppliedLsnOf(1), 100u);
  sim.RunUntilIdle();

  EXPECT_FALSE(g.IsRecovering(1));
  EXPECT_EQ(g.AppliedLsnOf(1), 160u);
  EXPECT_EQ(chaos.recoveries_replayed(), 1u);
  ASSERT_EQ(chaos.recoveries().size(), 1u);
  EXPECT_GT(chaos.recoveries()[0].finished, chaos.recoveries()[0].started);
  // Every replica node 1 held (4 with 2 replicas over 6 partitions) caught
  // up; the partition-0 record streamed exactly the missing range.
  EXPECT_EQ(chaos.catch_ups().size(), 4u);
  bool found = false;
  for (const FailureInjector::CatchUpRecord& c : chaos.catch_ups()) {
    if (c.partition == 0) {
      found = true;
      EXPECT_EQ(c.node, 1);
      EXPECT_EQ(c.entries, 60u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(chaos.recovery_violations().empty());

  IntegrityReport report = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  EXPECT_TRUE(report.ok()) << report.violations[0];
}

TEST(RecoveryTest, DirtyCrashReplaysShorterPrefix) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  RecoveryConfig rcfg = RCfg();
  rcfg.durability_lag = 1 * kSecond;  // nothing this young is synced
  cluster.EnableRecovery(rcfg);
  cluster.Start();
  FailureInjector chaos(&cluster);

  AppendWrites(&cluster, 0, 100);
  sim.RunUntil(50 * kMillisecond);  // acked at ~10ms, still inside the lag
  ASSERT_EQ(cluster.router().group(0).AppliedLsnOf(1), 100u);

  // Every durable mark is younger than the fsync horizon: node 1's replica
  // of partition 0 replays from LSN 0 and must re-stream the whole log.
  chaos.FailNodeDirty(1);
  sim.RunUntilIdle();
  chaos.RecoverNode(1);
  const ReplicaGroup& g = cluster.router().group(0);
  ASSERT_TRUE(g.HasSecondary(1));
  EXPECT_EQ(g.AppliedLsnOf(1), 0u);
  sim.RunUntilIdle();
  EXPECT_EQ(g.AppliedLsnOf(1), 100u);
  EXPECT_FALSE(g.IsRecovering(1));

  IntegrityReport report = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  EXPECT_TRUE(report.ok()) << report.violations[0];
}

TEST(RecoveryTest, CatchUpIsPricedThroughTheNetwork) {
  // The catch-up stream pays bandwidth/latency like any other transfer:
  // with more entries to stream, the rejoin takes strictly longer.
  SimTime durations[2];
  for (int i = 0; i < 2; ++i) {
    Simulator sim;
    Cluster cluster(&sim, Cfg());
    cluster.EnableRecovery(RCfg());
    cluster.Start();
    FailureInjector chaos(&cluster);
    AppendWrites(&cluster, 0, 10);
    sim.RunUntil(50 * kMillisecond);
    chaos.FailNode(1);
    sim.RunUntilIdle();
    AppendWrites(&cluster, 0, i == 0 ? 100 : 5000);
    sim.RunUntil(100 * kMillisecond);
    chaos.RecoverNode(1);
    sim.RunUntilIdle();
    ASSERT_EQ(chaos.recoveries().size(), 1u);
    durations[i] =
        chaos.recoveries()[0].finished - chaos.recoveries()[0].started;
  }
  EXPECT_GT(durations[1], durations[0]);
}

// --- election ranking --------------------------------------------------------

TEST(RecoveryTest, RecoveringReplicaNeverBeatsCaughtUpCopy) {
  // The stale-election hazard: a recovered-but-not-caught-up replica holds
  // a higher applied LSN than a live caught-up copy would after sync, but
  // its log is a stale prefix. The election must prefer the caught-up copy.
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  cluster.EnableRecovery(RCfg());
  FailureInjector chaos(&cluster);

  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->AddSecondary(2, 0);
  g->Advance(100);
  g->Ack(1, 40);                 // caught-up copy, higher lag
  g->Ack(2, 90);                 // recovering copy, lower lag
  g->SetRecovering(2, true);

  chaos.FailNode(0);
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_EQ(chaos.stale_elections(), 0u);
  EXPECT_TRUE(g->IsRecovering(2));  // untouched by the election
}

TEST(RecoveryTest, LastResortStaleElectionIsCounted) {
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  cluster.EnableRecovery(RCfg());
  FailureInjector chaos(&cluster);

  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->Advance(100);
  g->Ack(1, 60);
  g->SetRecovering(1, true);  // the only surviving copy is mid-recovery

  chaos.FailNode(0);
  sim.RunUntilIdle();
  // Availability beats staleness as the last resort — but never silently.
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
  EXPECT_EQ(chaos.stale_elections(), 1u);
  EXPECT_FALSE(cluster.router().group(0).IsRecovering(1));
}

TEST(RecoveryTest, ElectionReRunsWhenCaughtUpCopyAppearsMidSync) {
  // The fire-time re-validation: the election picked the recovering replica
  // (nothing better existed), but a caught-up copy registered while the
  // log-sync delay elapsed. Promotion must re-run, not promote stale state.
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  cluster.EnableRecovery(RCfg());
  FailureInjector chaos(&cluster);

  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->Advance(100);
  g->Ack(1, 60);
  g->SetRecovering(1, true);

  chaos.FailNode(0);
  // While the election syncs (remaster_base_delay = 1ms), a caught-up copy
  // appears on node 2.
  sim.Schedule(100 * kMicrosecond, [&]() {
    g->AddSecondary(2, 100);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.router().PrimaryOf(0), 2);
  EXPECT_EQ(chaos.stale_elections(), 0u);
  EXPECT_GE(chaos.elections_rerun(), 1u);
  EXPECT_TRUE(cluster.router().group(0).IsRecovering(1));
}

// --- reconfiguration guards --------------------------------------------------

TEST(RecoveryTest, RemasterToRecoveringTargetAborts) {
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  cluster.EnableRecovery(RCfg());
  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->Advance(10);
  g->SetRecovering(1, true);

  bool called = false, ok = true;
  cluster.remaster().Remaster(0, 1, [&](bool success) {
    called = true;
    ok = success;
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 0);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

TEST(RecoveryTest, MovePrimaryToRecoveringTargetAborts) {
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  cluster.EnableRecovery(RCfg());
  ReplicaGroup* g = cluster.router().mutable_group(0);
  g->Advance(10);
  g->SetRecovering(1, true);

  bool called = false, ok = true;
  cluster.migration().MovePrimary(0, 1, [&](bool success) {
    called = true;
    ok = success;
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_EQ(cluster.router().PrimaryOf(0), 0);
  EXPECT_FALSE(cluster.remaster().IsBlocked(0));
}

// --- crash races -------------------------------------------------------------

TEST(RecoveryTest, CrashDuringCatchUpAbandonsAndRetries) {
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  RecoveryConfig rcfg = RCfg();
  rcfg.catch_up_batch = 8;  // many in-flight steps to invalidate
  cluster.EnableRecovery(rcfg);
  cluster.Start();
  FailureInjector chaos(&cluster);

  AppendWrites(&cluster, 0, 50);
  sim.RunUntil(50 * kMillisecond);
  chaos.FailNode(1);
  sim.RunUntilIdle();
  AppendWrites(&cluster, 0, 2000);
  sim.RunUntil(100 * kMillisecond);

  // Recover, then crash again while the catch-up stream is mid-flight. The
  // generation token kills the stale steps; the recovery record never
  // closes for the abandoned attempt.
  chaos.RecoverNode(1);
  ASSERT_TRUE(cluster.router().group(0).IsRecovering(1));
  sim.Schedule(10 * kMicrosecond, [&]() { chaos.FailNodeDirty(1); });
  sim.RunUntilIdle();
  EXPECT_TRUE(chaos.recoveries().empty());
  EXPECT_FALSE(cluster.router().group(0).HasReplica(1));

  // The second recovery completes normally.
  chaos.RecoverNode(1);
  sim.RunUntilIdle();
  EXPECT_FALSE(cluster.router().group(0).IsRecovering(1));
  EXPECT_EQ(cluster.router().group(0).AppliedLsnOf(1),
            cluster.router().group(0).primary_lsn());
  EXPECT_EQ(chaos.recoveries().size(), 1u);
  EXPECT_EQ(chaos.recoveries_replayed(), 2u);
  EXPECT_TRUE(chaos.recovery_violations().empty());

  IntegrityReport report = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  EXPECT_TRUE(report.ok()) << report.violations[0];
}

TEST(RecoveryTest, DoubleCrashBeforeCatchUpKeepsInvariants) {
  // Primary and the recovering node's catch-up source both die: the stream
  // parks on the unavailable partition and resumes when a primary returns.
  Simulator sim;
  ClusterConfig cfg = Cfg();
  Cluster cluster(&sim, cfg);
  cluster.EnableRecovery(RCfg());
  cluster.Start();
  FailureInjector chaos(&cluster);

  AppendWrites(&cluster, 0, 50);
  sim.RunUntil(50 * kMillisecond);
  chaos.FailNode(1);
  sim.RunUntilIdle();
  AppendWrites(&cluster, 0, 500);
  sim.RunUntil(100 * kMillisecond);

  // Node 1 starts catching up; its only source (node 0, primary of pid 0
  // after no failover was needed) dies immediately after.
  chaos.RecoverNode(1);
  chaos.FailNode(0);
  sim.RunUntilIdle();

  // The failover elects the caught-up copy or, as a last resort, the
  // recovering one; either way the partition ends available with invariants
  // intact once node 0 also returns.
  chaos.RecoverNode(0);
  sim.RunUntilIdle();
  const ReplicaGroup& g = cluster.router().group(0);
  EXPECT_FALSE(g.IsRecovering(1));
  IntegrityReport report = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  EXPECT_TRUE(report.ok()) << report.violations[0];
}

// --- experiment harness ------------------------------------------------------

TEST(RecoveryExperimentTest, CrashRecoverUnderLoadStaysConsistent) {
  ExperimentBuilder builder;
  builder.Protocol("2PC").Workload("ycsb");
  builder.config().cluster = Cfg();
  builder.config().cluster.workers_per_node = 4;
  builder.Warmup(100 * kMillisecond).Duration(600 * kMillisecond).Seed(7);
  builder.config().chaos.schedule = {"200ms crash 1", "350ms recover 1",
                                     "450ms crash_dirty 2", "550ms recover 2",
                                     "650ms truncate 0"};
  builder.config().recovery.enabled = true;
  builder.config().recovery.durability_lag = 5 * kMillisecond;
  builder.config().recovery.catch_up_batch = 64;

  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  const Json& m = res.subsystems;
  EXPECT_GT(res.committed, 0u);
  EXPECT_EQ(UintAt(m, "integrity.violations"), 0u)
      << DumpAt(m, "integrity.messages");
  // Both crashed nodes replayed their logs and completed their catch-ups;
  // the recovered nodes serve committed pre-crash writes (the ledger
  // reconstruction above would flag anything lost).
  EXPECT_EQ(UintAt(m, "recovery.recoveries_replayed"), 2u);
  EXPECT_GE(UintAt(m, "recovery.catch_ups"), 1u);
  EXPECT_EQ(UintAt(m, "recovery.catch_ups"),
            LengthAt(m, "recovery.catch_up_events"));
  EXPECT_GT(UintAt(m, "recovery.log_entries"), 0u);
  EXPECT_GE(UintAt(m, "recovery.log_snapshots"), 1u);  // the forced truncate
  EXPECT_GT(UintAt(m, "integrity.log_writes_checked"), 0u);

  std::string json = res.ToJson().Dump();
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"catch_up_events\""), std::string::npos);
  EXPECT_NE(json.find("\"stale_elections\""), std::string::npos);
}

TEST(RecoveryExperimentTest, RecoveryOffEmitsNoRecoveryFieldsAndIsDeterministic) {
  // recovery.enabled = false must leave the run byte-identical to a build
  // without the subsystem: no recovery fields in the JSON (even with chaos
  // on), and repeat runs with the same seed produce identical output.
  auto run = [](bool with_chaos) {
    ExperimentBuilder builder;
    builder.Protocol("2PC").Workload("ycsb");
    builder.config().cluster = Cfg();
    builder.config().cluster.workers_per_node = 4;
    builder.Warmup(50 * kMillisecond).Duration(300 * kMillisecond).Seed(7);
    if (with_chaos) {
      builder.config().chaos.schedule = {"100ms crash 1", "200ms recover 1"};
    }
    ExperimentResult res;
    EXPECT_TRUE(builder.Run(&res).ok());
    EXPECT_EQ(res.subsystems.Find("recovery"), nullptr);
    return res.ToJson().Dump();
  };

  std::string quiet = run(false);
  EXPECT_EQ(quiet.find("\"recovery\""), std::string::npos);
  EXPECT_EQ(run(false), quiet);

  std::string chaotic = run(true);
  EXPECT_EQ(chaotic.find("\"recovery\""), std::string::npos);
  EXPECT_EQ(chaotic.find("stale_elections"), std::string::npos);
  EXPECT_EQ(chaotic.find("log_writes_checked"), std::string::npos);
  EXPECT_EQ(run(true), chaotic);
}

}  // namespace
}  // namespace lion
