// Tests for the Lion core: heat graph, clump generation, cost model,
// Algorithm 1 (including the paper's Example 2), router, adaptor, planner,
// and the Lion protocol in standard and batch modes.
#include <gtest/gtest.h>

#include "core/clump.h"
#include "core/cost_model.h"
#include "core/heat_graph.h"
#include "core/history_ring.h"
#include "core/lion_protocol.h"
#include "core/plan_generator.h"
#include "core/planner.h"
#include "core/txn_router.h"
#include "harness/driver.h"
#include "workload/ycsb.h"

namespace lion {
namespace {

// --- HeatGraph -----------------------------------------------------------------

TEST(HeatGraphTest, AccumulatesVertexAndEdgeWeights) {
  HeatGraph g;
  g.AddAccess({1, 2});
  g.AddAccess({1, 2});
  g.AddAccess({3});
  EXPECT_DOUBLE_EQ(g.VertexWeight(1), 2.0);
  EXPECT_DOUBLE_EQ(g.VertexWeight(2), 2.0);
  EXPECT_DOUBLE_EQ(g.VertexWeight(3), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 1), 2.0);  // undirected
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 3), 0.0);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(HeatGraphTest, MultiPartitionTxnConnectsAllPairs) {
  HeatGraph g;
  g.AddAccess({1, 2, 3});
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 3), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 3), 1.0);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(HeatGraphTest, WeightedAccess) {
  HeatGraph g;
  g.AddAccess({1, 2}, 2.5);
  EXPECT_DOUBLE_EQ(g.VertexWeight(1), 2.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 2.5);
}

TEST(HeatGraphTest, VerticesByHeatOrdersHottestFirst) {
  HeatGraph g;
  g.AddAccess({1});
  g.AddAccess({2});
  g.AddAccess({2});
  g.AddAccess({3});
  g.AddAccess({3});
  g.AddAccess({3});
  EXPECT_EQ(g.VerticesByHeat(), (std::vector<PartitionId>{3, 2, 1}));
}

TEST(HeatGraphTest, HeatTiesBreakByIdDeterministically) {
  HeatGraph g;
  g.AddAccess({5});
  g.AddAccess({2});
  g.AddAccess({9});
  EXPECT_EQ(g.VerticesByHeat(), (std::vector<PartitionId>{2, 5, 9}));
}

TEST(HeatGraphTest, ClearResets) {
  HeatGraph g;
  g.AddAccess({1, 2});
  g.Clear();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 0.0);
}

// --- HistoryRing ---------------------------------------------------------------

using PartitionSets = std::vector<std::vector<PartitionId>>;

PartitionSets HeldSets(const HistoryRing& ring) {
  PartitionSets sets;
  ring.ForEach([&sets](const PartitionId* parts, size_t n) {
    sets.emplace_back(parts, parts + n);
  });
  return sets;
}

void Push(HistoryRing* ring, const std::vector<PartitionId>& parts) {
  ring->Push(parts.data(), parts.size());
}

TEST(HistoryRingTest, KeepsTheLastSetsOldestFirst) {
  HistoryRing ring(3);
  Push(&ring, {0});
  Push(&ring, {1, 2});
  Push(&ring, {});
  EXPECT_EQ(HeldSets(ring), (PartitionSets{{0}, {1, 2}, {}}));
  Push(&ring, {3, 4, 5});  // evicts {0}
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(HeldSets(ring), (PartitionSets{{1, 2}, {}, {3, 4, 5}}));

  // Many more pushes: the ring index wraps again and again, and the buffer
  // slides its live sets back to the front.
  for (PartitionId i = 0; i < 100; ++i) Push(&ring, {i, i + 1});
  EXPECT_EQ(HeldSets(ring), (PartitionSets{{97, 98}, {98, 99}, {99, 100}}));

  // A set far longer than the buffer so far comes back intact, between its
  // neighbours, also once it is the oldest.
  std::vector<PartitionId> long_set(1000);
  for (size_t i = 0; i < long_set.size(); ++i) {
    long_set[i] = static_cast<PartitionId>(i);
  }
  Push(&ring, long_set);
  Push(&ring, {7});
  EXPECT_EQ(HeldSets(ring), (PartitionSets{{99, 100}, long_set, {7}}));
  Push(&ring, {8, 9});
  EXPECT_EQ(HeldSets(ring), (PartitionSets{long_set, {7}, {8, 9}}));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
}

// --- Workload analysis: the paper's Fig. 3 example ------------------------------
// Transactions: T1{P1,P2} T2{P3} T3{P4} T4{P1,P2} T5{P5} T6{P4} T7{P5}
// Expected clumps: C1{P1,P2} w=4, C2{P3} w=1, C3{P4} w=2, C4{P5} w=2.
// (Partitions P1..P5 are ids 0..4 here.)

HeatGraph Figure3Graph() {
  HeatGraph g;
  g.AddAccess({0, 1});  // T1
  g.AddAccess({2});     // T2
  g.AddAccess({3});     // T3
  g.AddAccess({0, 1});  // T4
  g.AddAccess({4});     // T5
  g.AddAccess({3});     // T6
  g.AddAccess({4});     // T7
  return g;
}

TEST(ClumpTest, PaperFigure3ClumpGeneration) {
  HeatGraph g = Figure3Graph();
  RouterTable table(3, 5);
  ClumpGenerator gen;
  std::vector<Clump> clumps = gen.Generate(g, table);

  ASSERT_EQ(clumps.size(), 4u);
  // Seeds are hottest-first: P1 (w=2, id 0) leads and absorbs P2.
  EXPECT_EQ(clumps[0].pids, (std::vector<PartitionId>{0, 1}));
  EXPECT_DOUBLE_EQ(clumps[0].weight, 4.0);
  // The three singletons cover P4, P5, P3 with weights 2, 2, 1.
  double singleton_total = 0.0;
  for (size_t i = 1; i < clumps.size(); ++i) {
    EXPECT_EQ(clumps[i].pids.size(), 1u);
    singleton_total += clumps[i].weight;
  }
  EXPECT_DOUBLE_EQ(singleton_total, 5.0);
}

TEST(ClumpTest, AlphaThresholdSplitsWeakEdges) {
  RouterTable table(1, 2);  // same node: no cross boost
  ClumpGenerator gen;
  HeatGraph once;
  once.AddAccess({0, 1});  // weight 1, not above alpha = 1: split
  EXPECT_EQ(gen.Generate(once, table).size(), 2u);
  HeatGraph twice;
  twice.AddAccess({0, 1});
  twice.AddAccess({0, 1});  // weight 2 > alpha: one clump
  EXPECT_EQ(gen.Generate(twice, table).size(), 1u);
}

TEST(ClumpTest, RelativeThresholdPrunesNoiseEdges) {
  // Two strong affine pairs plus incidental weak edges between them: the
  // relative threshold keeps the pairs and drops the noise, avoiding one
  // giant clump (the TPC-C remote-order pattern).
  HeatGraph g;
  for (int i = 0; i < 100; ++i) g.AddAccess({0, 1});
  for (int i = 0; i < 100; ++i) g.AddAccess({2, 3});
  for (int i = 0; i < 3; ++i) g.AddAccess({1, 2});  // noise
  RouterTable table(4, 4);  // everything cross-node: same multiplier applies
  // The noise edge's raw weight 3 is below half the mean (203 / 3 / 2), so
  // it is dropped although its boosted weight 12 passes alpha.
  ClumpGenerator gen;
  auto clumps = gen.Generate(g, table);
  ASSERT_EQ(clumps.size(), 2u);
  EXPECT_EQ(clumps[0].pids.size(), 2u);
  EXPECT_EQ(clumps[1].pids.size(), 2u);
}

TEST(ClumpTest, ColocatedPairsStayClustered) {
  // Placement stability: once a strongly co-accessed pair is co-located,
  // the relative filter must NOT split it (that would let load fine-tuning
  // tear it apart and cause planner oscillation).
  HeatGraph g;
  for (int i = 0; i < 50; ++i) g.AddAccess({0, 1});
  RouterTable table(2, 2);
  table.mutable_group(1)->Promote(0);  // both primaries on node 0
  ClumpGenerator gen;
  auto clumps = gen.Generate(g, table);
  ASSERT_EQ(clumps.size(), 1u);
  EXPECT_EQ(clumps[0].pids, (std::vector<PartitionId>{0, 1}));
}

TEST(ClumpTest, CrossNodeEdgesGetBoosted) {
  HeatGraph g;
  g.AddAccess({0, 1});  // raw weight 1
  // Partitions 0,1 on different nodes: effective weight 1*4 = 4 > alpha=1.
  RouterTable cross_table(2, 2);
  ClumpGenerator gen;
  EXPECT_EQ(gen.Generate(g, cross_table).size(), 1u);
  // Same node: effective weight stays 1, not above alpha: two clumps.
  RouterTable local_table(1, 2);
  EXPECT_EQ(gen.Generate(g, local_table).size(), 2u);
}

TEST(ClumpTest, TransitiveExpansion) {
  HeatGraph g;
  for (int i = 0; i < 3; ++i) {
    g.AddAccess({0, 1});
    g.AddAccess({1, 2});
  }
  RouterTable table(1, 3);  // same node: no cross boost
  ClumpGenerator gen;
  auto clumps = gen.Generate(g, table);
  ASSERT_EQ(clumps.size(), 1u);  // 0-1-2 chain merges through P1
  EXPECT_EQ(clumps[0].pids, (std::vector<PartitionId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(clumps[0].weight, 3.0 + 6.0 + 3.0);
}

// --- CostModel -------------------------------------------------------------------

// Placement used by Example 2 (Fig. 4b), partitions P1..P5 as ids 0..4:
//   P1: primary n0, secondary n1       P2: primary n2, secondary n0
//   P3: primary n1, secondary n2       P4: primary n2
//   P5: primary n0, secondary n1
RouterTable Example2Table() {
  RouterTable table(3, 5);
  // P1 (0): default primary n0; add secondary n1.
  table.mutable_group(0)->AddSecondary(1, 0);
  // P2 (1): default primary n1 -> force to n2, drop the leftover, add n0.
  table.mutable_group(1)->Promote(2);
  table.mutable_group(1)->RemoveSecondary(1);
  table.mutable_group(1)->AddSecondary(0, 0);
  // P3 (2): default primary n2 -> force to n1, keep secondary n2 (Fig. 2).
  table.mutable_group(2)->Promote(1);
  // P4 (3): default primary n0 -> force to n2, no secondaries.
  table.mutable_group(3)->Promote(2);
  table.mutable_group(3)->RemoveSecondary(0);
  // P5 (4): default primary n1 -> force to n0; old primary n1 stays secondary.
  table.mutable_group(4)->Promote(0);
  return table;
}

TEST(CostModelTest, CntRemasterAndMigrate) {
  RouterTable table = Example2Table();
  CostModel model(CostModelConfig{});
  // P1 primary on n0: no cost there.
  EXPECT_DOUBLE_EQ(model.CntRemaster(table, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(model.CntMigrate(table, 0, 0), 0.0);
  // P1 secondary on n1: remaster counts 1 + log2(f+1); f=0 here.
  EXPECT_DOUBLE_EQ(model.CntRemaster(table, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(model.CntMigrate(table, 0, 1), 0.0);
  // P1 absent on n2: migration.
  EXPECT_DOUBLE_EQ(model.CntRemaster(table, 0, 2), 0.0);
  EXPECT_DOUBLE_EQ(model.CntMigrate(table, 0, 2), 1.0);
}

TEST(CostModelTest, RemasterCostGrowsWithPrimaryFrequency) {
  RouterTable table = Example2Table();
  CostModel model(CostModelConfig{});
  // P1 is the hottest partition: f = 1.
  for (int i = 0; i < 10; ++i) table.RecordAccess(0);
  double hot = model.CntRemaster(table, 0, 1);
  EXPECT_DOUBLE_EQ(hot, 2.0);  // 1 + log2(2)
}

TEST(CostModelTest, PaperExample2PlacementCosts) {
  // "the costs for C1 to N1, N2, and N3 are wr, wm+wr, and wm"
  RouterTable table = Example2Table();
  CostModelConfig cfg;
  cfg.wm = 10.0;
  CostModel model(cfg);
  Clump c1{{0, 1}, 4.0, kInvalidNode};
  EXPECT_DOUBLE_EQ(model.PlacementCost(table, c1, 0), cfg.wr);
  EXPECT_DOUBLE_EQ(model.PlacementCost(table, c1, 1), cfg.wm + cfg.wr);
  EXPECT_DOUBLE_EQ(model.PlacementCost(table, c1, 2), cfg.wm);
  // C2{P3}, C3{P4}, C4{P5} are free on n1, n2, n0 respectively.
  EXPECT_DOUBLE_EQ(model.PlacementCost(table, Clump{{2}, 1.0, -1}, 1), 0.0);
  EXPECT_DOUBLE_EQ(model.PlacementCost(table, Clump{{3}, 2.0, -1}, 2), 0.0);
  EXPECT_DOUBLE_EQ(model.PlacementCost(table, Clump{{4}, 2.0, -1}, 0), 0.0);
}

TEST(CostModelTest, ExecutionCostPrefersPrimaries) {
  RouterTable table = Example2Table();
  CostModel model(CostModelConfig{});
  // Txn on {P1, P2}: n0 has P1 primary + P2 secondary -> cost wr*1.
  EXPECT_DOUBLE_EQ(model.ExecutionCost(table, {0, 1}, 0), 1.0);
  // n2 has P2 primary, P1 absent -> remote_access.
  EXPECT_DOUBLE_EQ(model.ExecutionCost(table, {0, 1}, 2),
                   CostModelConfig{}.remote_access);
}

// --- PlanGenerator: the paper's Example 2 end to end -----------------------------

TEST(PlanGeneratorTest, PaperExample2DispatchAndFineTune) {
  RouterTable table = Example2Table();
  PlanGeneratorConfig cfg;
  cfg.cost.wm = 10.0;
  PlanGenerator gen(cfg);

  std::vector<Clump> clumps = {
      {{0, 1}, 4.0, kInvalidNode},  // C1 {P1,P2}
      {{2}, 1.0, kInvalidNode},     // C2 {P3}
      {{3}, 2.0, kInvalidNode},     // C3 {P4}
      {{4}, 2.0, kInvalidNode},     // C4 {P5}
  };
  ReconfigurationPlan plan = gen.Rearrange(clumps, table);

  ASSERT_EQ(plan.assignments.size(), 4u);
  EXPECT_EQ(plan.assignments[0].dst, 0);  // C1 -> N1
  EXPECT_EQ(plan.assignments[1].dst, 1);  // C2 -> N2
  EXPECT_EQ(plan.assignments[2].dst, 2);  // C3 -> N3
  // Fine-tuning moved C4 off the overloaded N1 to idle N2 (secondary there).
  EXPECT_EQ(plan.assignments[3].dst, 1);  // C4 -> N2
  EXPECT_EQ(plan.fine_tune_moves, 1);
  // Final operation cost is 2*wr (C1's remaster of P2 + C4's remaster of P5).
  EXPECT_DOUBLE_EQ(plan.total_cost, 2.0);
}

TEST(PlanGeneratorTest, Example2PlanEntries) {
  RouterTable table = Example2Table();
  PlanGenerator gen(PlanGeneratorConfig{});
  std::vector<Clump> clumps = {
      {{0, 1}, 4.0, kInvalidNode},
      {{2}, 1.0, kInvalidNode},
      {{3}, 2.0, kInvalidNode},
      {{4}, 2.0, kInvalidNode},
  };
  ReconfigurationPlan plan = gen.Rearrange(clumps, table);
  std::vector<PlanEntry> entries = plan.ToEntries(table);
  // Expected actions: remaster P2 -> n0, remaster P5 -> n1. P1/P3/P4 stay.
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].action, PlanAction::kRemaster);
  EXPECT_EQ(entries[0].pid, 1);
  EXPECT_EQ(entries[0].node, 0);
  EXPECT_EQ(entries[1].action, PlanAction::kRemaster);
  EXPECT_EQ(entries[1].pid, 4);
  EXPECT_EQ(entries[1].node, 1);
}

TEST(PlanGeneratorTest, BalancedInputNeedsNoFineTuning) {
  RouterTable table(3, 6);
  table.InitRoundRobin(2);
  PlanGenerator gen(PlanGeneratorConfig{});
  std::vector<Clump> clumps;
  for (PartitionId p = 0; p < 6; ++p)
    clumps.push_back(Clump{{p}, 1.0, kInvalidNode});
  ReconfigurationPlan plan = gen.Rearrange(clumps, table);
  EXPECT_EQ(plan.fine_tune_moves, 0);
  EXPECT_DOUBLE_EQ(plan.total_cost, 0.0);
  // Every clump stays on its primary node.
  for (const Clump& c : plan.assignments)
    EXPECT_EQ(c.dst, table.PrimaryOf(c.pids[0]));
}

TEST(PlanGeneratorTest, MissingReplicasProduceAddEntries) {
  RouterTable table(3, 3);  // k=1: no secondaries anywhere
  PlanGenerator gen(PlanGeneratorConfig{});
  // Force co-location of all three partitions (primaries on 3 nodes).
  std::vector<Clump> clumps = {{{0, 1, 2}, 9.0, kInvalidNode}};
  ReconfigurationPlan plan = gen.Rearrange(clumps, table);
  std::vector<PlanEntry> entries = plan.ToEntries(table);
  ASSERT_EQ(entries.size(), 2u);
  for (const auto& e : entries) {
    EXPECT_EQ(e.action, PlanAction::kAddReplica);
    EXPECT_EQ(e.node, plan.assignments[0].dst);
  }
}

TEST(PlanGeneratorTest, FineTuningRespectsStepBudget) {
  RouterTable table(2, 48);
  table.InitRoundRobin(2);
  PlanGenerator gen(PlanGeneratorConfig{});
  // All 24 clumps cheapest on node 0 (primaries there), grossly imbalanced:
  // avg = 12 and theta = 12 * 1.25 = 15, so 9 moves are needed. The first
  // 8 use up one step budget; FindOINodes is re-derived for the ninth.
  std::vector<Clump> clumps;
  for (PartitionId p = 0; p < 48; p += 2)
    clumps.push_back(Clump{{p}, 1.0, kInvalidNode});
  ReconfigurationPlan plan = gen.Rearrange(clumps, table);
  EXPECT_EQ(plan.fine_tune_moves, 9);
  int on_node0 = 0;
  for (const Clump& c : plan.assignments) on_node0 += c.dst == 0 ? 1 : 0;
  EXPECT_EQ(on_node0, 15);
}

// --- Paper Example 3: prediction merges clumps and relocates them ------------

TEST(PlanGeneratorTest, PaperExample3PredictionMergesAndRelocates) {
  // Recap of Example 3 (Sec. IV-C): the predictor anticipates that P3 and
  // P4 will be co-accessed (transaction T3), so their singleton clumps C2
  // and C3 merge into C2' and the plan places them together on N3, which
  // holds P4's primary and P3's secondary.
  RouterTable table = Example2Table();

  // Historical workload of Fig. 3 plus the predicted co-access edge
  // (the red dashed line of Fig. 5c), injected with weight w_p * rate.
  HeatGraph g = Figure3Graph();
  g.AddAccess({2, 3}, 2.0);  // predicted: P3-P4

  ClumpGenerator cgen;
  std::vector<Clump> clumps = cgen.Generate(g, table);

  // P3 and P4 now share a clump of collective weight >= 3.
  const Clump* merged = nullptr;
  for (const Clump& c : clumps) {
    if (c.pids == std::vector<PartitionId>{2, 3}) merged = &c;
  }
  ASSERT_NE(merged, nullptr);
  EXPECT_GE(merged->weight, 3.0);

  PlanGeneratorConfig pcfg;
  pcfg.cost.wm = 10.0;
  PlanGenerator pgen(pcfg);
  ReconfigurationPlan plan = pgen.Rearrange(clumps, table);

  // C2' lands on N3 (node 2): P4's primary plus P3's secondary live there,
  // so co-locating costs only one remastering.
  for (const Clump& c : plan.assignments) {
    if (c.pids == std::vector<PartitionId>{2, 3}) {
      EXPECT_EQ(c.dst, 2);
    }
  }
  // And the resulting plan entry remasters P3 onto node 2.
  bool found = false;
  for (const PlanEntry& e : plan.ToEntries(table)) {
    if (e.pid == 2 && e.node == 2) {
      EXPECT_EQ(e.action, PlanAction::kRemaster);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- TxnRouter -------------------------------------------------------------------

ClusterConfig LionTestConfig() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.partitions_per_node = 2;
  cfg.records_per_partition = 1000;
  cfg.record_bytes = 100;
  cfg.remaster_base_delay = 200 * kMicrosecond;
  return cfg;
}

TEST(TxnRouterTest, PrefersNodeWithAllPrimaries) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  TxnRouter router(&cluster, CostModelConfig{});
  // Partitions 0 and 3 both have primary on node 0.
  EXPECT_EQ(router.Route({0, 3}), 0);
  EXPECT_EQ(router.Route({1, 4}), 1);
}

TEST(TxnRouterTest, PrefersReplicasOverNone) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  TxnRouter router(&cluster, CostModelConfig{});
  // Txn {0, 1}: primaries on n0 and n1. Round-robin secondaries: p0 on n1,
  // p1 on n2. Node 1 holds primary(1)... wait p1 primary is n1, secondary n2.
  // Node 1 holds p1 primary + p0 secondary = 2 replicas: best.
  EXPECT_EQ(router.Route({0, 1}), 1);
}

TEST(TxnRouterTest, LoadBreaksTies) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  TxnRouter router(&cluster, CostModelConfig{});
  // Partition 0: primary n0, secondary n1. A single-partition txn reaches
  // the same replica count (1) on both... primary beats secondary via cost,
  // so n0 wins regardless of load.
  EXPECT_EQ(router.Route({0}), 0);
  // Partitions 2 (primary n2, sec n0) and 5 (primary n2, sec n0): node 2
  // has both primaries; busy node 2 still wins on replica count.
  cluster.pool(2)->Submit(TaskPriority::kNew, 1000000, []() {});
  EXPECT_EQ(router.Route({2, 5}), 2);
}

// --- Adaptor ---------------------------------------------------------------------

TEST(AdaptorTest, AppliesAddReplicaEntry) {
  Simulator sim;
  ClusterConfig cfg = LionTestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  Adaptor adaptor(&cluster, 2);
  // Partition 0 has replicas on n0, n1; n2 lacks one.
  adaptor.Apply(PlanEntry{PlanAction::kAddReplica, 0, 2});
  sim.RunUntilIdle();
  EXPECT_TRUE(cluster.router().HasSecondary(2, 0));
  EXPECT_EQ(adaptor.adds_completed(), 1u);
}

TEST(AdaptorTest, AddReplicaEnforcesMaxReplicaLimit) {
  Simulator sim;
  ClusterConfig cfg = LionTestConfig();
  cfg.max_replicas = 2;
  Cluster cluster(&sim, cfg);
  cluster.Start();
  Adaptor adaptor(&cluster, 2);
  adaptor.Apply(PlanEntry{PlanAction::kAddReplica, 0, 2});
  sim.RunUntilIdle();
  sim.RunUntil(sim.Now() + 2 * cfg.epoch_interval);
  // Limit 2: adding n2 must evict the old secondary n1.
  EXPECT_TRUE(cluster.router().HasSecondary(2, 0));
  EXPECT_EQ(cluster.router().group(0).LiveReplicaCount(), 2);
  EXPECT_EQ(cluster.migration().evictions(), 1u);
}

TEST(AdaptorTest, AppliesRemasterEntry) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  cluster.Start();
  Adaptor adaptor(&cluster, 1);
  adaptor.Apply(PlanEntry{PlanAction::kRemaster, 0, 1});  // n1 holds secondary
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.router().PrimaryOf(0), 1);
}

// --- Planner ---------------------------------------------------------------------

TEST(PlannerTest, CoAccessedPartitionsGetCoLocated) {
  Simulator sim;
  ClusterConfig cfg = LionTestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  PlannerConfig pcfg;
  pcfg.min_history = 10;
  Planner planner(&cluster, pcfg);

  // Partitions 2 (primary n2) and 3 (primary n0) heavily co-accessed.
  for (int i = 0; i < 200; ++i) planner.RecordTxn({2, 3}, sim.Now());
  planner.RunOnce();
  sim.RunUntilIdle();

  EXPECT_EQ(planner.plans_generated(), 1u);
  EXPECT_GT(planner.entries_dispatched(), 0u);
  // After plan application both partitions share a node (via remaster of an
  // existing secondary or a fresh replica + remaster on demand).
  NodeId n2 = cluster.router().PrimaryOf(2);
  bool colocated = cluster.router().PrimaryOf(3) == n2 ||
                   cluster.router().HasSecondary(n2, 3) ||
                   cluster.router().HasSecondary(cluster.router().PrimaryOf(3), 2);
  EXPECT_TRUE(colocated);
}

TEST(PlannerTest, NoPlanningBelowMinHistory) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  PlannerConfig pcfg;
  pcfg.min_history = 100;
  Planner planner(&cluster, pcfg);
  planner.RecordTxn({0, 1}, 0);
  planner.RunOnce();
  EXPECT_EQ(planner.plans_generated(), 0u);
}

TEST(PlannerTest, HistoryIsBounded) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  PlannerConfig pcfg;
  pcfg.min_history = 1;
  Planner planner(&cluster, pcfg);
  // More than the analyzer's 20,000-transaction history B.
  for (int i = 0; i < 20500; ++i) planner.RecordTxn({0}, 0);
  planner.RunOnce();  // must not blow up; capacity respected internally
  EXPECT_EQ(planner.plans_generated(), 1u);
}

TEST(PlannerTest, PeriodicPlanningViaStart) {
  Simulator sim;
  ClusterConfig cfg = LionTestConfig();
  Cluster cluster(&sim, cfg);
  cluster.Start();
  PlannerConfig pcfg;
  pcfg.interval = 100 * kMillisecond;
  pcfg.min_history = 1;
  Planner planner(&cluster, pcfg);
  planner.Start();
  for (int i = 0; i < 20; ++i) planner.RecordTxn({0, 1}, sim.Now());
  sim.RunUntil(350 * kMillisecond);
  EXPECT_GE(planner.plans_generated(), 3u);
}

// --- LionProtocol: the paper's Example 1 -------------------------------------------

// Example 1 placement: P1 primary N1(n0), P2 primary N3(n2), P3 primary
// N2(n1). Secondaries: P1 on n1 (Fig. 2 follower), P2 on n0, P3 on n2.
void SetupExample1(Cluster* cluster) {
  RouterTable& t = cluster->router();
  // 3 nodes x 2 partitions = 6; we use 0..3 as P1..P4.
  // P1 (0): default primary n0, secondary n1. Matches.
  // P2 (1): default primary n1 -> n2; secondary n0.
  t.mutable_group(1)->Promote(2);
  t.mutable_group(1)->RemoveSecondary(1);
  t.mutable_group(1)->AddSecondary(0, 0);
  // P3 (2): default primary n2 (secondary n0) -> n1; keep only secondary n2.
  t.mutable_group(2)->Promote(1);
  t.mutable_group(2)->RemoveSecondary(0);
  // P4 (3): default primary n0 (secondary n1) -> n2, no replica elsewhere.
  t.mutable_group(3)->Promote(2);
  t.mutable_group(3)->RemoveSecondary(0);
  t.mutable_group(3)->RemoveSecondary(1);
}

TxnPtr SingleWrite(TxnId id, PartitionId pid, Key key) {
  auto txn = std::make_unique<Transaction>(id, 0);
  Operation op;
  op.partition = pid;
  op.key = key;
  op.type = OpType::kWrite;
  txn->ops().push_back(op);
  return txn;
}

TEST(LionProtocolTest, Example1SingleNodeWithoutRemastering) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  cluster.Start();
  SetupExample1(&cluster);
  MetricsCollector metrics;
  LionProtocol lion(&cluster, &metrics, LionOptions{});

  // T2: W(z) with z in P3 (id 2), primary on n1: direct single-node.
  bool done = false;
  lion.Submit(SingleWrite(1, 2, 7), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->exec_class(), ExecClass::kSingleNode);
    EXPECT_EQ(t->coordinator(), 1);
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(lion.remaster_requests(), 0u);
  EXPECT_EQ(metrics.single_node(), 1u);
}

TEST(LionProtocolTest, Example1RemasterConversion) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  cluster.Start();
  SetupExample1(&cluster);
  MetricsCollector metrics;
  LionProtocol lion(&cluster, &metrics, LionOptions{});

  // T1: W(x in P1), R(y in P2). Router picks n0 (P1 primary + P2 secondary);
  // P2 is remastered to n0, then T1 runs as a single-node transaction.
  auto txn = std::make_unique<Transaction>(1, 0);
  Operation w;
  w.partition = 0;
  w.key = 1;
  w.type = OpType::kWrite;
  Operation r;
  r.partition = 1;
  r.key = 2;
  r.type = OpType::kRead;
  txn->ops().push_back(w);
  txn->ops().push_back(r);

  bool done = false;
  lion.Submit(std::move(txn), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->exec_class(), ExecClass::kRemastered);
    EXPECT_EQ(t->coordinator(), 0);
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(lion.remaster_requests(), 1u);
  EXPECT_EQ(lion.remaster_conversions(), 1u);
  EXPECT_EQ(cluster.router().PrimaryOf(1), 0);  // P2 now mastered on n0
  EXPECT_EQ(metrics.remastered(), 1u);
}

TEST(LionProtocolTest, Example1DistributedFallback) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  cluster.Start();
  SetupExample1(&cluster);
  MetricsCollector metrics;
  LionProtocol lion(&cluster, &metrics, LionOptions{});

  // T3 writes P3 (primary n1, secondary n2) and P4 (primary n2, no other
  // replica). No node has all replicas... n2 has P4 primary + P3 secondary!
  // That is convertible. Use P4 + P1 instead: replicas {n2} and {n0, n1}:
  // disjoint, so no single node qualifies -> distributed.
  auto txn = std::make_unique<Transaction>(1, 0);
  for (PartitionId pid : {0, 3}) {
    Operation op;
    op.partition = pid;
    op.key = 3;
    op.type = OpType::kWrite;
    txn->ops().push_back(op);
  }
  bool done = false;
  lion.Submit(std::move(txn), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->exec_class(), ExecClass::kDistributed);
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(lion.fallback_distributed(), 1u);
  EXPECT_EQ(metrics.distributed(), 1u);
}

TEST(LionProtocolTest, Example1ConvertibleViaSecondary) {
  Simulator sim;
  Cluster cluster(&sim, LionTestConfig());
  cluster.Start();
  SetupExample1(&cluster);
  MetricsCollector metrics;
  LionProtocol lion(&cluster, &metrics, LionOptions{});

  // {P3, P4}: n2 holds P4 primary + P3 secondary: remaster P3 and convert.
  auto txn = std::make_unique<Transaction>(1, 0);
  for (PartitionId pid : {2, 3}) {
    Operation op;
    op.partition = pid;
    op.key = 4;
    op.type = OpType::kWrite;
    txn->ops().push_back(op);
  }
  bool done = false;
  lion.Submit(std::move(txn), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->exec_class(), ExecClass::kRemastered);
    EXPECT_EQ(t->coordinator(), 2);
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.router().PrimaryOf(2), 2);
}

TEST(LionProtocolTest, GroupCommitDelaysCompletionToEpoch) {
  Simulator sim;
  ClusterConfig ccfg = LionTestConfig();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  LionOptions opts;
  opts.batch_mode = true;
  LionProtocol lion(&cluster, &metrics, opts);
  lion.Start();

  SimTime done_at = -1;
  lion.Submit(SingleWrite(1, 0, 5), [&](TxnPtr) { done_at = sim.Now(); });
  sim.RunUntil(4 * ccfg.epoch_interval);
  // The batch flushes at the first epoch end and commits just after it;
  // group commit holds the acknowledgement to the next epoch end.
  EXPECT_EQ(done_at, 2 * ccfg.epoch_interval);
}

TEST(LionProtocolTest, ClosedLoopYcsbMostlySingleNodeAfterAdaptation) {
  Simulator sim;
  ClusterConfig ccfg = LionTestConfig();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  LionOptions opts;
  opts.planner.interval = 200 * kMillisecond;
  opts.planner.min_history = 32;
  LionProtocol lion(&cluster, &metrics, opts);
  lion.Start();

  YcsbConfig ycfg;
  ycfg.ops_per_txn = 6;
  ycfg.cross_ratio = 0.5;
  YcsbWorkload workload(ccfg, ycfg);
  ClosedLoopDriver driver(&sim, &lion, &workload, &metrics, 12);
  driver.Start();
  sim.RunUntil(2 * kSecond);
  metrics.StartMeasurement(sim.Now());
  sim.RunUntil(4 * kSecond);
  driver.Stop();
  sim.RunUntil(5 * kSecond);

  EXPECT_GT(metrics.committed(), 500u);
  // Lion's point: most transactions execute on a single node.
  EXPECT_GT(metrics.single_node() + metrics.remastered(),
            metrics.distributed());
}

TEST(LionProtocolTest, BatchModeFlushesAtEpoch) {
  Simulator sim;
  ClusterConfig ccfg = LionTestConfig();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  LionOptions opts;
  opts.batch_mode = true;
  LionProtocol lion(&cluster, &metrics, opts);
  lion.Start();

  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    lion.Submit(SingleWrite(i + 1, 0, 10 + i), [&](TxnPtr) { committed++; });
  }
  // Nothing executes before the first epoch flush.
  sim.RunUntil(ccfg.epoch_interval / 2);
  EXPECT_EQ(committed, 0);
  sim.RunUntil(4 * ccfg.epoch_interval);
  EXPECT_EQ(committed, 5);
}

TEST(LionProtocolTest, BatchModeAsyncRemasterBarrier) {
  Simulator sim;
  ClusterConfig ccfg = LionTestConfig();
  ccfg.remaster_base_delay = 3000 * kMicrosecond;
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  SetupExample1(&cluster);
  MetricsCollector metrics;
  LionOptions opts;
  opts.batch_mode = true;
  LionProtocol lion(&cluster, &metrics, opts);
  lion.Start();

  // Convertible txn on {P1, P2}: async remaster of P2 onto n0 kicks off at
  // submission time, well before the epoch flush.
  auto txn = std::make_unique<Transaction>(1, 0);
  for (PartitionId pid : {0, 1}) {
    Operation op;
    op.partition = pid;
    op.key = 6;
    op.type = OpType::kWrite;
    txn->ops().push_back(op);
  }
  bool done = false;
  lion.Submit(std::move(txn), [&](TxnPtr t) {
    done = true;
    EXPECT_EQ(t->exec_class(), ExecClass::kRemastered);
  });
  // Remaster (3 ms) completes before the 10 ms epoch: no barrier stall.
  sim.RunUntil(5 * ccfg.epoch_interval);
  EXPECT_TRUE(done);
  EXPECT_EQ(lion.remaster_conversions(), 1u);
}

TEST(LionProtocolTest, BatchSizeLimitTriggersEarlyFlush) {
  Simulator sim;
  ClusterConfig ccfg = LionTestConfig();
  Cluster cluster(&sim, ccfg);
  cluster.Start();
  MetricsCollector metrics;
  LionOptions opts;
  opts.batch_mode = true;
  LionProtocol lion(&cluster, &metrics, opts);
  lion.Start();

  // 10,000 submissions fill a batch, so it flushes at once instead of at
  // the first epoch end: its commits are acknowledged at that epoch end,
  // not the second. Spread over every node's primaries, they run well
  // within the epoch.
  const int kBatch = 10000;
  int committed = 0;
  for (int i = 0; i < kBatch; ++i) {
    PartitionId pid = i % cluster.num_partitions();
    lion.Submit(SingleWrite(i + 1, pid, i), [&](TxnPtr) { committed++; });
  }
  sim.RunUntil(ccfg.epoch_interval + ccfg.epoch_interval / 2);
  EXPECT_EQ(committed, kBatch);
}

}  // namespace
}  // namespace lion
