// Golden result and sweep JSON: ExperimentResult::ToJson() and
// MergeSweepJson() compared byte for byte with reference files in
// tests/golden/. One run per result shape (headline only; chaos with a
// dirty crash and recovery on; meta) and one merged --repeat document with
// a report block. The files pin every key, its order and every number's
// formatting; regenerate one only for a deliberate format change.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep_cli.h"
#include "harness/sweep_spec.h"

namespace lion {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.workers_per_node = 4;
  cfg.partitions_per_node = 2;
  cfg.records_per_partition = 500;
  cfg.record_bytes = 100;
  cfg.init_replicas = 2;
  cfg.remaster_base_delay = 1 * kMillisecond;
  return cfg;
}

/// Compares `actual` with tests/golden/<name>, which holds the JSON text
/// and a trailing newline.
void ExpectGolden(const std::string& name, const Json& actual) {
  std::ifstream file(std::string(LION_SOURCE_DIR) + "/tests/golden/" + name);
  ASSERT_TRUE(file.good()) << "cannot read tests/golden/" << name;
  std::stringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(actual.Dump() + "\n", expected.str()) << name;
}

TEST(GoldenOutputTest, HeadlineOnlyResult) {
  ExperimentBuilder builder;
  builder.Protocol("2PC").Workload("ycsb");
  builder.config().cluster = SmallCluster();
  builder.Warmup(50 * kMillisecond).Duration(250 * kMillisecond).Seed(7);
  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  ExpectGolden("result_headline.json", res.ToJson());
}

TEST(GoldenOutputTest, ChaosWithRecoveryResult) {
  ExperimentBuilder builder;
  builder.Protocol("2PC").Workload("ycsb");
  builder.config().cluster = SmallCluster();
  builder.Warmup(100 * kMillisecond).Duration(600 * kMillisecond).Seed(7);
  builder.config().chaos.schedule = {"200ms crash 1", "350ms recover 1",
                                     "450ms crash_dirty 2", "550ms recover 2",
                                     "650ms truncate 0"};
  builder.config().recovery.enabled = true;
  builder.config().recovery.durability_lag = 5 * kMillisecond;
  builder.config().recovery.catch_up_batch = 64;
  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  ExpectGolden("result_chaos_recovery.json", res.ToJson());
}

TEST(GoldenOutputTest, MetaResult) {
  ExperimentBuilder builder;
  builder.Protocol("meta").Workload("ycsb-hotspot-position");
  builder.config().cluster = SmallCluster();
  builder.DynamicPeriod(200 * kMillisecond);
  builder.Warmup(100 * kMillisecond).Duration(600 * kMillisecond).Seed(7);
  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  ExpectGolden("result_meta.json", res.ToJson());
}

TEST(GoldenOutputTest, MergedRepeatSweepWithRecoveryPanel) {
  Json doc;
  ASSERT_TRUE(Json::Parse(R"({"name": "Rec",
      "base": {"protocol": "2PC", "workload": "ycsb",
               "warmup_s": 0.05, "duration_s": 0.4,
               "cluster": {"workers_per_node": 2, "partitions_per_node": 4,
                           "records_per_partition": 1000},
               "chaos": {"schedule": ["100ms crash_dirty 1",
                                      "150ms recover 1", "250ms crash 2"]},
               "recovery": {"durability_lag_us": 2000}},
      "axes": [{"path": "recovery.enabled", "values": [false, true],
                "labels": ["rejoin_empty", "replay"]}],
      "reports": ["recovery_panel"]})",
                          &doc)
                  .ok());
  std::vector<SweepPoint> points;
  ASSERT_TRUE(ExpandSweepDocument(doc, &points).ok());
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  for (SweepPoint& p : ExpandRepeat(points, 2)) runner.Add(std::move(p));
  std::vector<SweepOutcome> outcomes = runner.Run();
  for (const SweepOutcome& o : outcomes) {
    ASSERT_TRUE(o.status.ok()) << o.name << ": " << o.status.ToString();
  }
  ExpectGolden("sweep_repeat_recovery_panel.json",
               MergeSweepJson(points, outcomes, 2));
}

}  // namespace
}  // namespace lion
