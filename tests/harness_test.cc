// Tests for the experiment harness: registry-driven assembly, end-to-end
// runs for every registered protocol name, and cross-protocol comparative
// sanity checks that mirror the paper's headline claims at miniature scale.
#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace lion {
namespace {

ExperimentConfig BaseConfig() {
  ExperimentConfig cfg;
  cfg.cluster.num_nodes = 3;
  cfg.cluster.partitions_per_node = 2;
  cfg.cluster.records_per_partition = 2000;
  cfg.cluster.record_bytes = 100;
  cfg.cluster.remaster_base_delay = 500 * kMicrosecond;
  cfg.warmup = 500 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.ycsb.ops_per_txn = 6;
  cfg.ycsb.cross_ratio = 0.5;
  cfg.lion.planner.interval = 250 * kMillisecond;
  cfg.lion.planner.min_history = 32;
  cfg.predictor.sample_interval = 100 * kMillisecond;
  cfg.predictor.train_epochs = 3;  // keep unit tests fast
  return cfg;
}

ExperimentResult RunConfig(const ExperimentConfig& cfg) {
  ExperimentResult res;
  Status status = ExperimentBuilder(cfg).Run(&res);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return res;
}

class AllProtocolsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AllProtocolsTest, CommitsTransactionsOnYcsb) {
  ExperimentConfig cfg = BaseConfig();
  cfg.protocol = GetParam();
  ExperimentResult res = RunConfig(cfg);
  EXPECT_GT(res.committed, 100u) << cfg.protocol;
  EXPECT_GT(res.throughput, 0.0);
  EXPECT_GT(res.p50_us, 0.0);
  EXPECT_LE(res.p50_us, res.p95_us);
  EXPECT_FALSE(res.window_throughput.empty());
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllProtocolsTest,
                         ::testing::Values("2PC", "Leap", "Clay", "Star",
                                           "Calvin", "Hermes", "Aria", "Lotus",
                                           "geo_occ", "Lion", "Lion(S)",
                                           "Lion(R)", "Lion(SW)", "Lion(RW)",
                                           "Lion(RB)", "Lion(B)"));

class TpccProtocolsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TpccProtocolsTest, CommitsTransactionsOnTpcc) {
  ExperimentConfig cfg = BaseConfig();
  cfg.protocol = GetParam();
  cfg.workload = "tpcc";
  cfg.tpcc.remote_ratio = 0.3;
  ExperimentResult res = RunConfig(cfg);
  EXPECT_GT(res.committed, 50u) << cfg.protocol;
}

INSTANTIATE_TEST_SUITE_P(TpccProtocols, TpccProtocolsTest,
                         ::testing::Values("2PC", "Lion", "Clay", "Calvin",
                                           "Lion(B)"));

TEST(HarnessTest, DynamicWorkloadsRun) {
  for (const char* wl : {"ycsb-hotspot-interval", "ycsb-hotspot-position"}) {
    ExperimentConfig cfg = BaseConfig();
    cfg.protocol = "Lion";
    cfg.workload = wl;
    cfg.dynamic_period = 500 * kMillisecond;
    ExperimentResult res = RunConfig(cfg);
    EXPECT_GT(res.committed, 100u) << wl;
  }
}

TEST(HarnessTest, UnknownProtocolIsBuildError) {
  ExperimentConfig cfg = BaseConfig();
  cfg.protocol = "NoSuchProtocol";
  ExperimentResult res;
  Status status = ExperimentBuilder(cfg).Run(&res);
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  // The error lists the known names so a typo is self-diagnosing.
  EXPECT_NE(status.message().find("Lion"), std::string::npos);
}

TEST(HarnessTest, UnknownWorkloadIsBuildError) {
  ExperimentConfig cfg = BaseConfig();
  cfg.workload = "NoSuchWorkload";
  std::unique_ptr<Experiment> ex;
  Status status = ExperimentBuilder(cfg).Build(&ex);
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
}

TEST(HarnessTest, InvalidTimingIsBuildError) {
  ExperimentConfig cfg = BaseConfig();
  cfg.duration = 0;
  std::unique_ptr<Experiment> ex;
  EXPECT_TRUE(ExperimentBuilder(cfg).Build(&ex).IsInvalidArgument());
  cfg = BaseConfig();
  cfg.concurrency = -1;
  EXPECT_TRUE(ExperimentBuilder(cfg).Build(&ex).IsInvalidArgument());
  cfg = BaseConfig();
  cfg.cluster.num_nodes = 0;
  EXPECT_TRUE(ExperimentBuilder(cfg).Build(&ex).IsInvalidArgument());
}

TEST(HarnessTest, BuilderExposesOwnedComponents) {
  ExperimentConfig cfg = BaseConfig();
  std::unique_ptr<Experiment> ex;
  ASSERT_TRUE(ExperimentBuilder(cfg).Build(&ex).ok());
  ASSERT_NE(ex->protocol(), nullptr);
  ASSERT_NE(ex->workload(), nullptr);
  ASSERT_NE(ex->cluster(), nullptr);
  EXPECT_EQ(ex->protocol()->name(), "Lion");
  EXPECT_EQ(ex->workload()->name(), "ycsb");
  // Standard protocol: closed-loop window defaults to nodes x workers.
  EXPECT_EQ(ex->concurrency(),
            cfg.cluster.num_nodes * cfg.cluster.workers_per_node);
}

TEST(HarnessTest, BatchProtocolGetsWideDefaultWindow) {
  ExperimentConfig cfg = BaseConfig();
  cfg.protocol = "Calvin";
  std::unique_ptr<Experiment> ex;
  ASSERT_TRUE(ExperimentBuilder(cfg).Build(&ex).ok());
  EXPECT_EQ(ex->concurrency(), 4000);
}

TEST(HarnessTest, StopFlushesBufferedBatchTransactions) {
  for (const char* protocol : {"Calvin", "Aria", "Lotus", "Lion(B)"}) {
    ExperimentConfig cfg = BaseConfig();
    cfg.protocol = protocol;
    std::unique_ptr<Experiment> ex;
    ASSERT_TRUE(ExperimentBuilder(cfg).Build(&ex).ok());
    ex->cluster()->Start();
    ex->protocol()->Start();
    // Submit mid-epoch, then Stop before any boundary: the buffered
    // transactions must still execute and complete — including ones that
    // abort after the stop-time flush and get retried.
    int done = 0;
    for (TxnId id = 1; id <= 5; ++id) {
      TxnPtr txn = ex->workload()->Next(id, ex->sim()->Now(),
                                        &ex->sim()->rng());
      ex->protocol()->Submit(std::move(txn), [&done](TxnPtr) { done++; });
    }
    ex->protocol()->Stop();
    ex->sim()->RunUntilIdle();
    EXPECT_EQ(done, 5) << protocol;
  }
}

TEST(HarnessTest, DeterministicGivenSeed) {
  ExperimentConfig cfg = BaseConfig();
  cfg.protocol = "2PC";
  ExperimentResult a = RunConfig(cfg);
  ExperimentResult b = RunConfig(cfg);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(HarnessTest, SeedChangesRun) {
  ExperimentConfig cfg = BaseConfig();
  cfg.protocol = "2PC";
  ExperimentResult a = RunConfig(cfg);
  cfg.seed = 999;
  ExperimentResult b = RunConfig(cfg);
  EXPECT_NE(a.committed, b.committed);
}

TEST(HarnessTest, ResultJsonContainsHeadlineFields) {
  ExperimentConfig cfg = BaseConfig();
  cfg.protocol = "2PC";
  ExperimentResult res = RunConfig(cfg);
  std::string json = res.ToJson().Dump();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"protocol\":\"2PC\"", "\"workload\":\"ycsb\"",
        "\"throughput_txn_s\":", "\"committed\":", "\"p50_us\":",
        "\"breakdown_us\":", "\"window_throughput\":[",
        "\"window_bytes_per_txn\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// --- Comparative sanity: miniature versions of the paper's claims ---------------

TEST(ComparativeTest, LionBeats2pcOnCrossPartitionWorkload) {
  ExperimentConfig cfg = BaseConfig();
  cfg.ycsb.cross_ratio = 1.0;
  cfg.duration = 2 * kSecond;

  cfg.protocol = "2PC";
  double tput_2pc = RunConfig(cfg).throughput;
  cfg.protocol = "Lion(R)";
  double tput_lion = RunConfig(cfg).throughput;
  EXPECT_GT(tput_lion, tput_2pc * 1.2);
}

TEST(ComparativeTest, LionConvertsMostTxnsToSingleNode) {
  ExperimentConfig cfg = BaseConfig();
  cfg.ycsb.cross_ratio = 1.0;
  cfg.protocol = "Lion(R)";
  cfg.duration = 2 * kSecond;
  ExperimentResult res = RunConfig(cfg);
  EXPECT_GT(res.single_node + res.remastered, res.distributed);
}

TEST(ComparativeTest, CrossRatioHurts2pcMoreThanLion) {
  ExperimentConfig cfg = BaseConfig();
  cfg.duration = 1 * kSecond;

  cfg.protocol = "2PC";
  cfg.ycsb.cross_ratio = 0.0;
  double tput_2pc_0 = RunConfig(cfg).throughput;
  cfg.ycsb.cross_ratio = 1.0;
  double tput_2pc_100 = RunConfig(cfg).throughput;

  cfg.protocol = "Lion(R)";
  cfg.ycsb.cross_ratio = 0.0;
  double tput_lion_0 = RunConfig(cfg).throughput;
  cfg.ycsb.cross_ratio = 1.0;
  double tput_lion_100 = RunConfig(cfg).throughput;

  double drop_2pc = tput_2pc_100 / tput_2pc_0;
  double drop_lion = tput_lion_100 / tput_lion_0;
  EXPECT_LT(drop_2pc, drop_lion);
}

TEST(ComparativeTest, NetworkBytesTrackedPerTxn) {
  ExperimentConfig cfg = BaseConfig();
  cfg.protocol = "2PC";
  cfg.ycsb.cross_ratio = 1.0;
  ExperimentResult res = RunConfig(cfg);
  EXPECT_GT(res.bytes_per_txn, 100.0);  // prepare/commit rounds cost bytes
  cfg.ycsb.cross_ratio = 0.0;
  ExperimentResult local = RunConfig(cfg);
  EXPECT_LT(local.bytes_per_txn, res.bytes_per_txn);
}

}  // namespace
}  // namespace lion
