// Geo-replication tests: topology tables and validation, region-aware
// network delays with deterministic jitter, and end-to-end determinism of
// the geo_occ protocol.
#include <gtest/gtest.h>

#include <cmath>

#include "harness/config_schema.h"
#include "harness/experiment.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace lion {
namespace {

// --- Topology ---------------------------------------------------------------

TEST(TopologyTest, FlatDefaultReproducesSingleDatacenterModel) {
  NetworkConfig cfg;
  Topology topo(cfg, 4);
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(topo.region_of(n), 0);
  EXPECT_EQ(topo.base_latency(0, 3), cfg.one_way_latency);
  EXPECT_EQ(topo.max_cross_region_latency(), 0);
}

TEST(TopologyTest, DefaultAssignmentSplitsNodesIntoContiguousBlocks) {
  NetworkConfig cfg;
  cfg.regions = 2;
  Topology topo(cfg, 4);
  EXPECT_EQ(topo.region_of(0), 0);
  EXPECT_EQ(topo.region_of(1), 0);
  EXPECT_EQ(topo.region_of(2), 1);
  EXPECT_EQ(topo.region_of(3), 1);
  // No matrix declared: intra-region pairs keep the LAN latency, distinct
  // regions the scalar WAN default.
  EXPECT_EQ(topo.base_latency(0, 1), cfg.one_way_latency);
  EXPECT_EQ(topo.base_latency(1, 2), cfg.cross_region_latency);
  EXPECT_EQ(topo.max_cross_region_latency(), cfg.cross_region_latency);
}

TEST(TopologyTest, ExplicitMatricesDriveLatencyAndBandwidth) {
  NetworkConfig cfg;
  cfg.regions = 2;
  cfg.node_regions = {0, 1, 0, 1};  // interleaved, not the block default
  cfg.region_latency_ms = {0.05, 30.0, 30.0, 0.05};
  Topology topo(cfg, 4);
  EXPECT_EQ(topo.region_of(1), 1);
  EXPECT_EQ(topo.region_of(2), 0);
  EXPECT_EQ(topo.base_latency(0, 2), 50 * kMicrosecond);   // 0 -> 0
  EXPECT_EQ(topo.base_latency(0, 1), 30 * kMillisecond);   // 0 -> 1
  EXPECT_EQ(topo.max_cross_region_latency(), 30 * kMillisecond);
  // The latency matrix is the only one: every pair serializes at the one
  // link bandwidth.
  Simulator sim;
  Network net(&sim, cfg, 4);
  const uint64_t bytes = 1'000'000;
  EXPECT_EQ(net.TransferDelay(0, 2, bytes) - topo.base_latency(0, 2),
            net.TransferDelay(0, 1, bytes) - topo.base_latency(0, 1));
}

TEST(TopologyTest, ValidateRejectsBadGeometry) {
  NetworkConfig cfg;
  cfg.regions = 2;

  cfg.node_regions = {0, 1, 0};  // three entries for four nodes
  Status s = Topology::Validate(cfg, 4);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("cluster.net.node_regions"), std::string::npos);

  cfg.node_regions = {0, 1, 0, 2};  // region 2 out of range
  s = Topology::Validate(cfg, 4);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("node_regions[3]"), std::string::npos);
  EXPECT_NE(s.message().find("unknown region 2"), std::string::npos);

  cfg.node_regions = {0, 1, 0, 1};
  cfg.region_latency_ms = {1.0, 2.0};  // needs regions^2 = 4 entries
  s = Topology::Validate(cfg, 4);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("regions^2"), std::string::npos);
}

// --- Network over the topology ----------------------------------------------

TEST(GeoNetworkTest, CrossRegionDelayUsesRegionPairLatencyAndBandwidth) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.regions = 2;
  Network net(&sim, cfg, /*num_nodes=*/4);
  // 1 MB at 117 MiB/s serializes in 8,151,063 ns.
  const uint64_t bytes = 1'000'000;
  const SimTime serialization = 8'151'063;
  SimTime intra = -1, cross = -1;
  net.Send(0, 1, bytes, [&]() { intra = sim.Now(); });  // both region 0
  net.Send(0, 3, bytes, [&]() { cross = sim.Now(); });  // region 0 -> 1
  sim.RunUntilIdle();
  EXPECT_EQ(intra, 25 * kMicrosecond + serialization);
  EXPECT_EQ(cross, 30 * kMillisecond + serialization);
}

TEST(GeoNetworkTest, JitterIsBoundedAndDeterministic) {
  NetworkConfig cfg;
  cfg.regions = 2;
  cfg.jitter_pct = 0.1;
  SimTime nominal = cfg.cross_region_latency +
                    static_cast<SimTime>(std::llround(
                        1000.0 / cfg.bandwidth_bytes_per_sec * kSecond));
  auto deliver_times = [&cfg](uint64_t seed) {
    Simulator sim(seed);
    Network net(&sim, cfg, 4);
    std::vector<SimTime> times;
    for (int i = 0; i < 16; ++i) {
      net.Send(0, 3, 1000, [&]() { times.push_back(sim.Now()); });
    }
    sim.RunUntilIdle();
    return times;
  };
  std::vector<SimTime> a = deliver_times(7);
  ASSERT_EQ(a.size(), 16u);
  bool varied = false;
  for (SimTime t : a) {
    EXPECT_GE(t, static_cast<SimTime>(0.9 * nominal));
    EXPECT_LE(t, static_cast<SimTime>(1.1 * nominal));
    if (t != a[0]) varied = true;
  }
  EXPECT_TRUE(varied);  // +-10% of 30 ms: 16 equal draws would be a bug
  EXPECT_EQ(a, deliver_times(7));   // same seed, same jitter
  EXPECT_NE(a, deliver_times(8));   // different seed, different jitter
}

// --- Config schema ----------------------------------------------------------

TEST(GeoConfigSchemaTest, RegionFieldsRoundTripExactly) {
  ExperimentConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.net.regions = 3;
  cfg.cluster.net.node_regions = {0, 0, 1, 2};
  cfg.cluster.net.region_latency_ms = {0.05, 30, 80, 30, 0.05, 50,
                                       80, 50, 0.05};
  cfg.cluster.net.jitter_pct = 0.07;

  std::string text = EmitExperimentConfig(cfg).Dump();
  Json doc;
  ASSERT_TRUE(Json::Parse(text, &doc).ok()) << text;
  ExperimentConfig back;
  Status s = ParseExperimentConfig(doc, &back);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(EmitExperimentConfig(back).Dump(), text);
  EXPECT_EQ(back.cluster.net.node_regions, cfg.cluster.net.node_regions);
  EXPECT_EQ(back.cluster.net.region_latency_ms,
            cfg.cluster.net.region_latency_ms);
}

TEST(GeoConfigSchemaTest, ValidationErrorsCarryDottedPaths) {
  ExperimentConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.net.regions = 2;
  cfg.cluster.net.node_regions = {0, 1};  // wrong length for 4 nodes
  Status s = ExperimentBuilder(cfg).Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("cluster.net.node_regions"), std::string::npos);

  // Per-element schema checks report the offending index.
  cfg = ExperimentConfig{};
  cfg.cluster.net.node_regions = {0, -1};
  s = ValidateExperimentConfig(cfg);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("node_regions[1]"), std::string::npos);
}

// --- geo_occ end to end -----------------------------------------------------

ExperimentConfig GeoOccConfig() {
  ExperimentConfig cfg;
  cfg.protocol = "geo_occ";
  cfg.cluster.num_nodes = 4;
  cfg.cluster.partitions_per_node = 2;
  cfg.cluster.records_per_partition = 2000;
  cfg.cluster.net.regions = 3;
  cfg.cluster.net.jitter_pct = 0.05;
  cfg.ycsb.cross_pattern = CrossPattern::kRandomNode;
  cfg.ycsb.cross_ratio = 0.5;
  cfg.warmup = 200 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.seed = 42;
  return cfg;
}

TEST(GeoOccTest, CommitsAcrossRegionsAndRetriesConflicts) {
  ExperimentResult res;
  Status s = ExperimentBuilder(GeoOccConfig()).Run(&res);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(res.committed, 100u);
  EXPECT_GT(res.distributed, 0u);
  // Epoch-aligned visibility: nothing commits faster than the epoch close.
  EXPECT_GE(res.p50_us,
            ToSeconds(ClusterConfig{}.epoch_interval) * 1e6 * 0.5);
}

TEST(GeoOccTest, FixedSeedRunsAreByteIdentical) {
  ExperimentResult a, b;
  ASSERT_TRUE(ExperimentBuilder(GeoOccConfig()).Run(&a).ok());
  ASSERT_TRUE(ExperimentBuilder(GeoOccConfig()).Run(&b).ok());
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

}  // namespace
}  // namespace lion
