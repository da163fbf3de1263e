// Pinned fixed-seed digests of every protocol family: the engine-backed
// protocols (2PC, Lion, Lion(B), Lion(S), Leap, Clay), the epoch-batch
// protocols (Star, Calvin, Aria, Lotus, geo_occ, Hermes), the meta protocol,
// and the replica-provision paths (copy, eviction, remaster, blocking
// migration, failover, recovery). Each case is a short deterministic
// experiment whose modeled outcome — commits, aborts, execution classes,
// network traffic and latency percentiles — is compared field by field
// against constants recorded from an earlier build.
// Host-side refactors (closure layout, callback types, context pooling,
// allocation strategy) must leave every one of them unchanged: any drift in
// event order, RNG draws or message accounting fails here. A mismatch
// prints the observed digest in initializer form; re-pin only for a
// deliberate change to the model.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "harness/experiment.h"

namespace lion {
namespace {

struct Digest {
  uint64_t committed;
  uint64_t aborts;
  uint64_t single_node;
  uint64_t remastered;
  uint64_t distributed;
  uint64_t net_bytes;
  uint64_t net_messages;
  double p50_us;
  double p99_us;
};

struct Case {
  const char* name;
  const char* protocol;
  const char* workload;
  int concurrency;
  Digest expected;
  /// Applied on top of CaseConfig's common settings; null for most cases.
  void (*config_override)(ExperimentConfig*) = nullptr;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

ExperimentConfig CaseConfig(const Case& c) {
  ExperimentConfig cfg;
  cfg.protocol = c.protocol;
  cfg.workload = c.workload;
  cfg.seed = 11;
  cfg.concurrency = c.concurrency;
  cfg.cluster.num_nodes = 3;
  cfg.cluster.partitions_per_node = 2;
  cfg.cluster.records_per_partition = 2000;
  cfg.cluster.record_bytes = 100;
  cfg.cluster.remaster_base_delay = 500 * kMicrosecond;
  cfg.warmup = 100 * kMillisecond;
  cfg.duration = 300 * kMillisecond;
  cfg.ycsb.ops_per_txn = 6;
  cfg.ycsb.cross_ratio = 0.5;
  cfg.ycsb.skew_factor = 0.8;
  cfg.tpcc.remote_ratio = 0.5;
  cfg.tpcc.items = 2000;
  cfg.dynamic_period = 100 * kMillisecond;
  cfg.lion.planner.interval = 100 * kMillisecond;
  cfg.lion.planner.min_history = 32;
  cfg.predictor.sample_interval = 50 * kMillisecond;
  cfg.predictor.train_epochs = 2;
  if (c.config_override != nullptr) c.config_override(&cfg);
  return cfg;
}

Digest RunCase(const Case& c) {
  std::unique_ptr<Experiment> ex;
  Status s = ExperimentBuilder(CaseConfig(c)).Build(&ex);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return Digest{};
  ExperimentResult res = ex->Run();
  const Network& net = ex->cluster()->network();
  return Digest{res.committed,   res.aborts,        res.single_node,
                res.remastered,  res.distributed,   net.total_bytes(),
                net.total_messages(), res.p50_us,   res.p99_us};
}

std::string Initializer(const Digest& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %.17g, %.17g}",
                d.committed, d.aborts, d.single_node, d.remastered,
                d.distributed, d.net_bytes, d.net_messages, d.p50_us,
                d.p99_us);
  return buf;
}

// Fields: committed, aborts, single_node, remastered, distributed,
// net_bytes, net_messages, p50_us, p99_us.
const Case kCases[] = {
    {"TwoPcTpcc", "2PC", "tpcc", 24,
     {26127, 4699, 13043, 0, 13084, 111670128, 194616, 229.376, 786.432}},
    {"LionYcsb", "Lion", "ycsb", 24,
     {203611, 360, 203611, 0, 0, 10440464, 306, 32.768, 61.44}},
    {"LionTpcc", "Lion", "tpcc", 24,
     {42742, 0, 42742, 0, 0, 83731104, 299, 163.84, 294.912}},
    {"LionHotspot", "Lion", "ycsb-hotspot-position", 24,
     {140455, 646, 140444, 2, 9, 12896240, 363, 49.152, 90.112}},
    {"LionBatchYcsb", "Lion(B)", "ycsb", 400,
     {11963, 37, 11963, 0, 0, 697600, 1017, 10000, 10000}},
    {"LionBatchHotspot", "Lion(B)", "ycsb-hotspot-position", 400,
     {11945, 55, 11940, 3, 2, 1132016, 1163, 10000, 10000}},
    {"LeapYcsb", "Leap", "ycsb", 24,
     {106075, 108, 106075, 0, 0, 6344772, 323, 69.632, 81.92}},
    {"ClayYcsb", "Clay", "ycsb", 24,
     {57039, 427, 28457, 0, 28582, 33863248, 383618, 221.184, 229.376}},
    {"StarYcsb", "Star", "ycsb", 400,
     {12000, 0, 5910, 6090, 0, 723712, 312, 10000, 10000}},
    {"CalvinYcsb", "Calvin", "ycsb", 400,
     {12000, 0, 5910, 0, 6090, 3784512, 23859, 10000, 10000}},
    {"AriaYcsb", "Aria", "ycsb", 400,
     {10989, 1011, 5409, 0, 5580, 4259424, 30784, 10000, 19922.944}},
    {"LotusYcsb", "Lotus", "ycsb", 400,
     {8908, 3169, 4423, 0, 4485, 2799104, 17676, 10000, 29360.128}},
    {"GeoOccYcsb", "geo_occ", "ycsb", 400,
     {11914, 86, 5860, 0, 6054, 5941824, 39755, 10000, 10000}},
    {"MetaYcsb", "meta", "ycsb", 400,
     {12000, 1, 5980, 5788, 232, 20286976, 224614, 9961.472, 18874.368}},
    {"HermesHotspot", "Hermes", "ycsb-hotspot-position", 400,
     {12000, 0, 11622, 378, 0, 1326532, 349, 10000, 10000}},
    // The batch family on TPC-C: NewOrder's inserts are the writes that
    // Aria's reservation round and Lotus's granule locks skip.
    {"StarTpcc", "Star", "tpcc", 400,
     {12000, 0, 5942, 6058, 0, 30633600, 312, 10000, 10000}},
    {"CalvinTpcc", "Calvin", "tpcc", 400,
     {11863, 0, 5881, 0, 5982, 33401456, 23493, 10000, 19922.944}},
    {"AriaTpcc", "Aria", "tpcc", 400,
     {12000, 0, 5942, 0, 6058, 44057696, 31634, 10000, 10000}},
    {"LotusTpcc", "Lotus", "tpcc", 400,
     {678, 11688, 330, 0, 348, 2397248, 1683, 142606.336, 268435.456}},
    {"GeoOccTpcc", "geo_occ", "tpcc", 400,
     {9457, 2543, 4710, 0, 4747, 41147744, 38187, 10000, 39845.888}},
    {"HermesTpcc", "Hermes", "tpcc", 400,
     {6475, 0, 6475, 0, 0, 17093632, 400, 19922.944, 29360.128}},
    // The reconfiguration paths, each under a per-case override. ClayYcsb's
    // 500 ms monitor never fires in a 400 ms run; at 100 ms Clay copies
    // replicas, evicts at a binding cap of 2 and remasters. Lion(S) moves
    // primaries by full blocking copies. The chaos case fails node 1 over,
    // forces a migration and recovers the node under Lion.
    {"ClayMonitorYcsb", "Clay", "ycsb", 24,
     {89748, 558, 65628, 0, 24120, 31966160, 339437, 24.576, 229.376},
     [](ExperimentConfig* cfg) {
       cfg->clay.monitor_interval = 100 * kMillisecond;
       cfg->cluster.max_replicas = 2;
     }},
    {"LionSHotspot", "Lion(S)", "ycsb-hotspot-position", 24,
     {134647, 607, 134604, 7, 36, 15313392, 609, 49.152, 94.208}},
    {"LionChaosYcsb", "Lion", "ycsb", 24,
     {174933, 355, 170428, 1, 4504, 9370248, 27510, 34.816, 172.032},
     [](ExperimentConfig* cfg) {
       cfg->chaos.schedule = {"150ms crash 1", "200ms migrate 2 0",
                              "300ms recover 1"};
     }},
};

class FixedSeedDigestTest : public ::testing::TestWithParam<Case> {};

TEST_P(FixedSeedDigestTest, MatchesPinnedValues) {
  const Case& c = GetParam();
  const Digest got = RunCase(c);
  const Digest& want = c.expected;
  SCOPED_TRACE(std::string("observed ") + c.name + ": " + Initializer(got));
  EXPECT_GT(got.committed, 0u);
  EXPECT_EQ(got.committed, want.committed);
  EXPECT_EQ(got.aborts, want.aborts);
  EXPECT_EQ(got.single_node, want.single_node);
  EXPECT_EQ(got.remastered, want.remastered);
  EXPECT_EQ(got.distributed, want.distributed);
  EXPECT_EQ(got.net_bytes, want.net_bytes);
  EXPECT_EQ(got.net_messages, want.net_messages);
  EXPECT_DOUBLE_EQ(got.p50_us, want.p50_us);
  EXPECT_DOUBLE_EQ(got.p99_us, want.p99_us);
}

// The instantiation keeps its original name, so the ids of the first eight
// cases stay stable although it now covers every protocol family.
INSTANTIATE_TEST_SUITE_P(EngineProtocols, FixedSeedDigestTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace lion
