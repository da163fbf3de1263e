// Property-style invariant tests: placement sanity, replication
// convergence, and determinism, swept across protocols and seeds.
#include <gtest/gtest.h>

#include "harness/driver.h"
#include "harness/experiment.h"
#include "harness/registry.h"

namespace lion {
namespace {

struct Sweep {
  const char* protocol;
  uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const Sweep& s) {
  return os << s.protocol << "/seed" << s.seed;
}

class PlacementInvariantsTest : public ::testing::TestWithParam<Sweep> {};

// After any protocol churns placement for a while and the system quiesces:
//  - every partition has exactly one primary on a valid node,
//  - live replica counts stay within [1, max_replicas] (+1 transient slack
//    for an in-flight delayed eviction),
//  - no partition is left blocked or mid-reconfiguration.
TEST_P(PlacementInvariantsTest, PlacementStaysSane) {
  const Sweep& sweep = GetParam();
  ClusterConfig ccfg;
  ccfg.num_nodes = 4;
  ccfg.partitions_per_node = 3;
  ccfg.records_per_partition = 1000;
  ccfg.record_bytes = 100;
  ccfg.max_replicas = 3;
  ccfg.remaster_base_delay = 300 * kMicrosecond;

  ExperimentConfig cfg;
  cfg.protocol = sweep.protocol;
  cfg.seed = sweep.seed;
  cfg.cluster = ccfg;
  cfg.ycsb.cross_ratio = 0.7;
  cfg.ycsb.skew_factor = 0.5;
  cfg.lion.planner.interval = 200 * kMillisecond;
  cfg.lion.planner.min_history = 32;
  cfg.predictor.train_epochs = 2;

  Simulator sim(cfg.seed);
  Cluster cluster(&sim, cfg.cluster);
  MetricsCollector metrics;
  std::unique_ptr<Protocol> protocol;
  Status status = ProtocolRegistry::Global().Create(
      cfg.protocol, ProtocolContext{cfg, &cluster, &metrics}, &protocol);
  ASSERT_TRUE(status.ok()) << status.ToString();
  YcsbWorkload workload(cfg.cluster, cfg.ycsb);

  cluster.Start();
  protocol->Start();
  ClosedLoopDriver driver(&sim, protocol.get(), &workload, &metrics, 24);
  driver.Start();
  sim.RunUntil(1500 * kMillisecond);
  driver.Stop();
  sim.RunUntilIdle();  // quiesce: drain in-flight work

  EXPECT_GT(metrics.committed(), 100u);
  for (PartitionId p = 0; p < cluster.num_partitions(); ++p) {
    const ReplicaGroup& g = cluster.router().group(p);
    EXPECT_GE(g.primary(), 0) << "partition " << p;
    EXPECT_LT(g.primary(), ccfg.num_nodes) << "partition " << p;
    EXPECT_GE(g.LiveReplicaCount(), 1) << "partition " << p;
    EXPECT_LE(g.LiveReplicaCount(), ccfg.max_replicas + 1) << "partition " << p;
    EXPECT_FALSE(g.HasSecondary(g.primary())) << "partition " << p;
    EXPECT_FALSE(g.reconfig_in_progress()) << "partition " << p;
    // No duplicate secondary entries.
    std::set<NodeId> nodes;
    for (const auto& sec : g.secondaries()) {
      EXPECT_TRUE(nodes.insert(sec.node).second) << "partition " << p;
      EXPECT_NE(sec.node, g.primary()) << "partition " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PlacementInvariantsTest,
    ::testing::Values(Sweep{"2PC", 1}, Sweep{"Leap", 1}, Sweep{"Leap", 7},
                      Sweep{"Clay", 1}, Sweep{"Clay", 7}, Sweep{"Lion(R)", 1},
                      Sweep{"Lion(R)", 7}, Sweep{"Lion(RW)", 3},
                      Sweep{"Lion(RB)", 3}, Sweep{"Lion(S)", 5},
                      Sweep{"Star", 1}, Sweep{"Calvin", 1}, Sweep{"Hermes", 5},
                      Sweep{"Aria", 1}, Sweep{"Lotus", 1}));

class ReplicationConvergenceTest : public ::testing::TestWithParam<const char*> {};

// With materialized secondaries, once the system quiesces and a few epochs
// pass, every live secondary has applied the full log and its copy holds
// each key at the authoritative store's current version.
TEST_P(ReplicationConvergenceTest, SecondariesConverge) {
  ClusterConfig ccfg;
  ccfg.num_nodes = 3;
  ccfg.partitions_per_node = 2;
  ccfg.records_per_partition = 300;
  ccfg.record_bytes = 100;
  ccfg.materialize_secondaries = true;
  ccfg.remaster_base_delay = 200 * kMicrosecond;

  ExperimentConfig cfg;
  cfg.protocol = GetParam();
  cfg.cluster = ccfg;
  cfg.ycsb.cross_ratio = 0.5;
  cfg.lion.planner.interval = 200 * kMillisecond;
  cfg.lion.planner.min_history = 32;
  cfg.predictor.train_epochs = 2;

  Simulator sim(3);
  Cluster cluster(&sim, ccfg);
  MetricsCollector metrics;
  std::unique_ptr<Protocol> protocol;
  Status status = ProtocolRegistry::Global().Create(
      cfg.protocol, ProtocolContext{cfg, &cluster, &metrics}, &protocol);
  ASSERT_TRUE(status.ok()) << status.ToString();
  YcsbWorkload workload(ccfg, cfg.ycsb);

  cluster.Start();
  protocol->Start();
  ClosedLoopDriver driver(&sim, protocol.get(), &workload, &metrics, 16);
  driver.Start();
  sim.RunUntil(1 * kSecond);
  driver.Stop();
  sim.RunUntilIdle();
  // A few more epochs so the final log entries ship.
  sim.RunUntil(sim.Now() + 5 * ccfg.epoch_interval);

  ASSERT_GT(metrics.committed(), 100u);
  for (PartitionId p = 0; p < cluster.num_partitions(); ++p) {
    const ReplicaGroup& g = cluster.router().group(p);
    for (const auto& sec : g.secondaries()) {
      if (sec.delete_flag) continue;
      EXPECT_EQ(g.LagOf(sec.node), 0u)
          << "partition " << p << " secondary on node " << sec.node;
      const auto* copy = cluster.replication().MaterializedCopy(p, sec.node);
      if (copy == nullptr) continue;  // never received a log entry
      for (const auto& [key, version] : *copy) {
        ASSERT_TRUE(cluster.store(p)->Contains(key));
        EXPECT_EQ(version, cluster.store(p)->VersionOf(key))
            << "partition " << p << " key " << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ReplicationConvergenceTest,
                         ::testing::Values("2PC", "Lion(R)", "Clay"));

// Committed writes are never lost: run a write-only single-partition
// workload with known keys; every committed transaction's writes must be
// present (version advanced past the load version).
TEST(DurabilityTest, CommittedWritesVisible) {
  ClusterConfig ccfg;
  ccfg.num_nodes = 2;
  ccfg.partitions_per_node = 1;
  ccfg.records_per_partition = 64;
  ccfg.record_bytes = 100;

  Simulator sim(9);
  Cluster cluster(&sim, ccfg);
  MetricsCollector metrics;
  ExperimentConfig cfg;
  cfg.protocol = "2PC";
  cfg.cluster = ccfg;
  std::unique_ptr<Protocol> protocol;
  ASSERT_TRUE(ProtocolRegistry::Global()
                  .Create(cfg.protocol,
                          ProtocolContext{cfg, &cluster, &metrics}, &protocol)
                  .ok());
  cluster.Start();
  protocol->Start();

  std::vector<std::pair<PartitionId, Key>> committed_writes;
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    auto txn = std::make_unique<Transaction>(i + 1, sim.Now());
    Operation op;
    op.partition = i % 2;
    op.key = static_cast<Key>(i % 64);
    op.type = OpType::kWrite;
    txn->ops().push_back(op);
    PartitionId pid = op.partition;
    Key key = op.key;
    protocol->Submit(std::move(txn), [&, pid, key](TxnPtr) {
      committed_writes.push_back({pid, key});
      done++;
    });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(done, 40);
  for (auto& [pid, key] : committed_writes) {
    EXPECT_GT(cluster.store(pid)->VersionOf(key), 1u);
  }
}

}  // namespace
}  // namespace lion
