// Chaos subsystem tests: fault-schedule parsing and validation, network
// partition park/heal, graceful degradation (bounded unavailability
// retries), the post-run integrity checker, and the chaos track end to end
// through the experiment harness — including that chaos-off runs emit no
// chaos fields at all.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "metrics/metrics.h"
#include "protocols/meta_protocol.h"
#include "protocols/twopc.h"
#include "replication/chaos.h"
#include "replication/cluster.h"
#include "replication/failure_injector.h"
#include "replication/integrity.h"
#include "result_members.h"
#include "sim/network.h"
#include "txn/transaction.h"

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

TxnPtr MakeTxn(TxnId id, PartitionId pid) {
  auto txn = std::make_unique<Transaction>(id, 0);
  Operation op;
  op.partition = pid;
  op.key = 1;
  op.type = OpType::kWrite;
  txn->ops().push_back(op);
  return txn;
}

// --- schedule grammar --------------------------------------------------------

TEST(ChaosEventTest, ParsesEveryKind) {
  ChaosEvent ev;
  ASSERT_TRUE(ChaosEvent::Parse("400ms crash 1", &ev).ok());
  EXPECT_EQ(ev.kind, ChaosEventKind::kCrash);
  EXPECT_EQ(ev.at, 400 * kMillisecond);
  EXPECT_EQ(ev.node, 1);

  ASSERT_TRUE(ChaosEvent::Parse("450ms crash_dirty 2", &ev).ok());
  EXPECT_EQ(ev.kind, ChaosEventKind::kCrashDirty);
  EXPECT_EQ(ev.at, 450 * kMillisecond);
  EXPECT_EQ(ev.node, 2);

  ASSERT_TRUE(ChaosEvent::Parse("1.5s recover 0", &ev).ok());
  EXPECT_EQ(ev.kind, ChaosEventKind::kRecover);
  EXPECT_EQ(ev.at, 1500 * kMillisecond);

  ASSERT_TRUE(ChaosEvent::Parse("2s truncate 1", &ev).ok());
  EXPECT_EQ(ev.kind, ChaosEventKind::kTruncate);
  EXPECT_EQ(ev.node, 1);
  EXPECT_EQ(ev.Describe(), "truncate node=1");

  ASSERT_TRUE(ChaosEvent::Parse("250us partition 1,2", &ev).ok());
  EXPECT_EQ(ev.kind, ChaosEventKind::kPartition);
  ASSERT_EQ(ev.island.size(), 2u);
  EXPECT_EQ(ev.island[0], 1);
  EXPECT_EQ(ev.island[1], 2);

  ASSERT_TRUE(ChaosEvent::Parse("1s heal", &ev).ok());
  EXPECT_EQ(ev.kind, ChaosEventKind::kHeal);

  ASSERT_TRUE(ChaosEvent::Parse("700ms lag_storm 100ms", &ev).ok());
  EXPECT_EQ(ev.kind, ChaosEventKind::kLagStorm);
  EXPECT_EQ(ev.duration, 100 * kMillisecond);

  ASSERT_TRUE(ChaosEvent::Parse("2s migrate 3 1", &ev).ok());
  EXPECT_EQ(ev.kind, ChaosEventKind::kMigrate);
  EXPECT_EQ(ev.partition, 3);
  EXPECT_EQ(ev.node, 1);
  EXPECT_FALSE(ev.Describe().empty());
}

TEST(ChaosEventTest, RejectsMalformedEntries) {
  ChaosEvent ev;
  EXPECT_FALSE(ChaosEvent::Parse("", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("crash 1", &ev).ok());        // no time
  EXPECT_FALSE(ChaosEvent::Parse("100xs crash 1", &ev).ok());  // bad unit
  EXPECT_FALSE(ChaosEvent::Parse("100ms crash", &ev).ok());    // missing arg
  EXPECT_FALSE(ChaosEvent::Parse("100ms crash 1 2", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms crash x", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms explode 1", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms crash_dirty", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms crash_dirty 1 2", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms crash_dirty x", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms truncate", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms truncate 0 1", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms heal 1", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms lag_storm 0ms", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms partition", &ev).ok());
  EXPECT_FALSE(ChaosEvent::Parse("100ms migrate 3", &ev).ok());
}

TEST(ChaosControllerTest, ValidateChecksIdRangesAndKnobs) {
  ClusterConfig cluster = Cfg();  // 3 nodes, 6 partitions
  ChaosConfig ok;
  ok.schedule = {"100ms crash 2", "200ms migrate 5 0"};
  EXPECT_TRUE(ChaosController::Validate(ok, cluster).ok());

  ChaosConfig bad_node;
  bad_node.schedule = {"100ms crash 3"};
  EXPECT_FALSE(ChaosController::Validate(bad_node, cluster).ok());

  ChaosConfig ok_recovery;
  ok_recovery.schedule = {"100ms crash_dirty 1", "200ms truncate 0"};
  EXPECT_TRUE(ChaosController::Validate(ok_recovery, cluster).ok());

  ChaosConfig bad_dirty_node;
  bad_dirty_node.schedule = {"100ms crash_dirty 3"};
  EXPECT_FALSE(ChaosController::Validate(bad_dirty_node, cluster).ok());

  ChaosConfig bad_truncate_node;
  bad_truncate_node.schedule = {"100ms truncate 7"};
  EXPECT_FALSE(ChaosController::Validate(bad_truncate_node, cluster).ok());

  ChaosConfig bad_island;
  bad_island.schedule = {"100ms partition 0,9"};
  EXPECT_FALSE(ChaosController::Validate(bad_island, cluster).ok());

  ChaosConfig bad_pid;
  bad_pid.schedule = {"100ms migrate 6 0"};
  EXPECT_FALSE(ChaosController::Validate(bad_pid, cluster).ok());

  ChaosConfig bad_grammar;
  bad_grammar.schedule = {"whenever crash 0"};
  EXPECT_FALSE(ChaosController::Validate(bad_grammar, cluster).ok());
}

// --- network partitions ------------------------------------------------------

TEST(ChaosNetworkTest, PartitionParksAndHealRedelivers) {
  Simulator sim;
  Network net(&sim, NetworkConfig{}, /*num_nodes=*/3);

  net.StartPartition({2});
  EXPECT_TRUE(net.Reachable(0, 1));
  EXPECT_FALSE(net.Reachable(0, 2));
  EXPECT_FALSE(net.Reachable(2, 1));
  EXPECT_TRUE(net.Reachable(2, 2));

  int delivered = 0;
  net.Send(0, 2, 100, [&]() { delivered += 1; });  // crosses the cut: parked
  net.Send(2, 1, 100, [&]() { delivered += 10; }); // crosses the cut: parked
  net.Send(0, 1, 100, [&]() { delivered += 100; }); // mainland: flows
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(net.messages_dropped(), 2u);

  // Heal retransmits every parked message in send order.
  net.HealPartition();
  EXPECT_TRUE(net.Reachable(0, 2));
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, 111);
}

// --- graceful degradation ----------------------------------------------------

TEST(ChaosDegradationTest, UnavailablePartitionAbortsAfterBoundedRetries) {
  Simulator sim;
  ClusterConfig cfg = Cfg(/*replicas=*/1);  // crash = hard outage
  Cluster cluster(&sim, cfg);
  cluster.Start();
  MetricsCollector metrics;
  TwoPcProtocol protocol(&cluster, &metrics);

  ChaosConfig ccfg;
  protocol.EnableDegradation(&ccfg);

  FailureInjector chaos(&cluster);
  chaos.FailNode(0);  // partitions 0 and 3 lose their only copy
  sim.RunUntilIdle();

  int done_calls = 0;
  protocol.Submit(MakeTxn(1, 0), [&](TxnPtr) { done_calls++; });
  EXPECT_EQ(done_calls, 0);  // still backing off, not failed synchronously
  sim.RunUntilIdle();
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(metrics.aborted_unavailable(), 1u);
  // Deterministic linear backoff: 8 retries, 1 + 2 + ... + 8 = 36 ms
  // before giving up.
  EXPECT_GE(sim.Now(), 36 * kMillisecond);

  // A transaction on a healthy partition is untouched by the gate.
  protocol.Submit(MakeTxn(2, 1), [&](TxnPtr) { done_calls += 10; });
  sim.RunUntilIdle();
  EXPECT_EQ(done_calls, 11);
  EXPECT_EQ(metrics.aborted_unavailable(), 1u);

  // Recovery lifts the gate for the failed partition too.
  chaos.RecoverNode(0);
  sim.RunUntilIdle();
  protocol.Submit(MakeTxn(3, 0), [&](TxnPtr) { done_calls += 100; });
  sim.RunUntilIdle();
  EXPECT_EQ(done_calls, 111);
  EXPECT_EQ(metrics.aborted_unavailable(), 1u);
}

TEST(ChaosDegradationTest, RetryBudgetSurvivesOccRestarts) {
  // ResetForRestart clears the OCC restart counter but must NOT clear the
  // unavailability budget, or a txn could ping-pong forever between the two.
  Transaction txn(1, 0);
  txn.BumpUnavailableRetries();
  txn.BumpUnavailableRetries();
  txn.ResetForRestart();
  EXPECT_EQ(txn.unavailable_retries(), 2);
}

// --- integrity checker -------------------------------------------------------

TEST(ChaosIntegrityTest, CleanClusterPasses) {
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  FailureInjector chaos(&cluster);
  IntegrityReport report = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  EXPECT_TRUE(report.ok()) << report.violations[0];
  EXPECT_EQ(report.partitions_checked, 6u);
}

TEST(ChaosIntegrityTest, CatchesSeededViolations) {
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  FailureInjector chaos(&cluster);

  // A blocked partition with no failover or unavailability marker is
  // exactly the leak the reconfiguration-token machinery prevents.
  const uint64_t token = cluster.router().mutable_group(0)->BeginReconfig();
  IntegrityReport blocked = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  ASSERT_EQ(blocked.violations.size(), 1u);
  EXPECT_EQ(blocked.violations[0],
            "partition 0: reconfiguration still in progress");
  ASSERT_TRUE(cluster.remaster().EndReconfig(0, token));

  // An applied LSN ahead of the primary's log breaks LSN monotonicity.
  ReplicaGroup* g = cluster.router().mutable_group(1);
  g->Ack(2, 50);  // primary_lsn is still 0
  IntegrityReport lsn = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  EXPECT_FALSE(lsn.ok());
  g->Advance(50);  // repair: the primary catches up past the bogus ack

  // A live secondary on a down node would silently vanish from replication.
  // FailNode drops them correctly, so seed one behind the injector's back.
  chaos.FailNode(2);
  sim.RunUntilIdle();
  cluster.router().mutable_group(0)->AddSecondary(2, 0);
  IntegrityReport ghost = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  EXPECT_FALSE(ghost.ok());
}

TEST(ChaosIntegrityTest, UnblockedUnavailablePartitionIsReported) {
  Simulator sim;
  Cluster cluster(&sim, Cfg(/*replicas=*/1));
  FailureInjector chaos(&cluster);
  chaos.FailNode(0);  // partitions 0 and 3 have no other copy
  sim.RunUntilIdle();
  ASSERT_TRUE(CheckClusterIntegrity(&cluster, &chaos, nullptr).ok());

  // Lifting an unavailable partition's block behind the injector's back
  // would let operations reach a primary on a down node.
  ASSERT_TRUE(cluster.remaster().EndReconfig(
      0, cluster.router().group(0).reconfig_generation()));
  IntegrityReport report = CheckClusterIntegrity(&cluster, &chaos, nullptr);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0],
            "partition 0: marked unavailable but not blocked");
}

TEST(ChaosIntegrityTest, LeakedRecordLockIsReported) {
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  // A commit round that never releases its write lock would block every
  // later writer of the key; the drained cluster must show no such lock.
  ASSERT_TRUE(cluster.store(3)->TryLock(7, 99));
  IntegrityReport leaked = CheckClusterIntegrity(&cluster, nullptr, nullptr);
  ASSERT_EQ(leaked.violations.size(), 1u);
  EXPECT_EQ(leaked.violations[0],
            "partition 3: 1 record locks held after quiesce");

  cluster.store(3)->Unlock(7, 99);
  IntegrityReport released = CheckClusterIntegrity(&cluster, nullptr, nullptr);
  EXPECT_TRUE(released.ok()) << released.violations[0];
}

TEST(ChaosIntegrityTest, LedgerDetectsMissingCommittedWrites) {
  Simulator sim;
  Cluster cluster(&sim, Cfg());
  CommitLedger ledger(cluster.num_partitions());

  // Record two committed writes; the preloaded store is at version 1, so
  // one of them is "lost" until it is actually applied.
  auto txn = MakeTxn(1, 0);
  txn->ops()[0].key = 7;
  ledger.Record(*txn);
  ledger.Record(*txn);
  EXPECT_EQ(ledger.writes_recorded(), 2u);
  IntegrityReport report = CheckClusterIntegrity(&cluster, nullptr, &ledger);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.committed_writes_checked, 1u);

  // Apply the write for real: the ledger and store now agree.
  EXPECT_EQ(cluster.store(0)->Apply(7), 2u);
  IntegrityReport applied = CheckClusterIntegrity(&cluster, nullptr, &ledger);
  EXPECT_TRUE(applied.ok()) << applied.violations[0];
}

// --- experiment harness ------------------------------------------------------

TEST(ChaosExperimentTest, ScheduledRunStaysConsistent) {
  ExperimentBuilder builder;
  builder.Protocol("2PC").Workload("ycsb");
  builder.config().cluster = Cfg();
  builder.config().cluster.workers_per_node = 4;
  builder.Warmup(100 * kMillisecond).Duration(600 * kMillisecond).Seed(7);
  builder.config().chaos.schedule = {"200ms crash 1", "350ms partition 2",
                                     "450ms heal", "500ms recover 1"};

  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  const Json& m = res.subsystems;
  EXPECT_GT(res.committed, 0u);
  EXPECT_EQ(LengthAt(m, "fault_events"), 4u);
  EXPECT_EQ(UintAt(m, "integrity.violations"), 0u)
      << DumpAt(m, "integrity.messages");
  EXPECT_EQ(UintAt(m, "integrity.partitions_checked"), 6u);
  EXPECT_GT(UintAt(m, "integrity.writes_checked"), 0u);
  EXPECT_EQ(LengthAt(m, "window_availability"), res.window_throughput.size());

  std::string json = res.ToJson().Dump();
  EXPECT_NE(json.find("\"fault_events\""), std::string::npos);
  EXPECT_NE(json.find("\"integrity\""), std::string::npos);
}

TEST(ChaosExperimentTest, ValidateRejectsBadSchedule) {
  ExperimentBuilder builder;
  builder.Protocol("2PC").Workload("ycsb");
  builder.config().cluster = Cfg();
  builder.config().chaos.schedule = {"200ms crash 99"};
  EXPECT_FALSE(builder.Validate().ok());
}

TEST(ChaosExperimentTest, ChaosOffEmitsNoChaosFields) {
  ExperimentBuilder builder;
  builder.Protocol("2PC").Workload("ycsb");
  builder.config().cluster = Cfg();
  builder.config().cluster.workers_per_node = 4;
  builder.Warmup(50 * kMillisecond).Duration(200 * kMillisecond).Seed(7);

  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  EXPECT_TRUE(res.subsystems.members().empty()) << res.subsystems.Dump();
  std::string json = res.ToJson().Dump();
  EXPECT_EQ(json.find("aborted_unavailable"), std::string::npos);
  EXPECT_EQ(json.find("fault_events"), std::string::npos);
  EXPECT_EQ(json.find("integrity"), std::string::npos);
  EXPECT_EQ(json.find("window_availability"), std::string::npos);
}

// A node crash landing mid-epoch — while the meta protocol is mid-decision
// and possibly mid-handoff — must never strand a partition: the run stays
// write-consistent (zero integrity violations), every started switch
// completes or is drained by Stop, and no transaction stays parked.
TEST(ChaosExperimentTest, MetaSwitchUnderCrashNeverStrandsAPartition) {
  ExperimentBuilder builder;
  builder.Protocol("meta").Workload("ycsb-hotspot-position");
  builder.config().cluster = Cfg();
  builder.config().cluster.workers_per_node = 4;
  builder.DynamicPeriod(200 * kMillisecond);
  builder.Warmup(100 * kMillisecond).Duration(600 * kMillisecond).Seed(7);
  // 205 ms sits 5 ms past an epoch boundary (10 ms epochs), so the crash
  // interleaves with in-flight switch handoffs rather than aligning with
  // the decision tick.
  builder.config().chaos.schedule = {"205ms crash 1", "500ms recover 1"};

  std::unique_ptr<Experiment> exp;
  ASSERT_TRUE(builder.Build(&exp).ok());
  ExperimentResult res = exp->Run();

  const Json& m = res.subsystems;
  EXPECT_NE(m.Find("meta"), nullptr);
  EXPECT_GT(res.committed, 0u);
  EXPECT_GE(LengthAt(m, "protocol_switches"), 1u);
  EXPECT_EQ(UintAt(m, "integrity.violations"), 0u)
      << DumpAt(m, "integrity.messages");
  EXPECT_GT(UintAt(m, "integrity.writes_checked"), 0u);

  auto* meta = dynamic_cast<MetaProtocol*>(exp->protocol());
  ASSERT_NE(meta, nullptr);
  EXPECT_FALSE(meta->SwitchInProgress());
  EXPECT_EQ(meta->parked(), 0u);
}

}  // namespace
}  // namespace lion
