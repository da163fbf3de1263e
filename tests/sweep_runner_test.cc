// SweepRunner: multi-threaded experiment fan-out must be deterministic —
// the merged JSON for a grid is byte-identical no matter how many threads
// execute it — and per-point failures must be reported, not fatal.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/sweep_cli.h"
#include "harness/sweep_runner.h"

namespace lion {
namespace {

// A grid point small enough that the whole sweep stays fast in Debug: two
// nodes, shrunken partitions, sub-second simulated time.
ExperimentConfig TinyConfig(const std::string& protocol, double cross,
                            uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.workload = "ycsb";
  cfg.cluster.num_nodes = 2;
  cfg.cluster.workers_per_node = 2;
  cfg.cluster.partitions_per_node = 4;
  cfg.cluster.records_per_partition = 1000;
  cfg.ycsb.cross_ratio = cross;
  cfg.ycsb.skew_factor = 0.5;
  cfg.warmup = 50 * kMillisecond;
  cfg.duration = 200 * kMillisecond;
  cfg.seed = seed;
  return cfg;
}

std::vector<SweepPoint> TinyGrid() {
  std::vector<SweepPoint> grid;
  grid.push_back({"2pc/cross=0", TinyConfig("2PC", 0.0, 1), {}});
  grid.push_back({"2pc/cross=50", TinyConfig("2PC", 0.5, 1), {}});
  grid.push_back({"2pc/seed=2", TinyConfig("2PC", 0.5, 2), {}});
  grid.push_back({"leap/cross=50", TinyConfig("Leap", 0.5, 1), {}});
  return grid;
}

std::string RunMerged(int threads) {
  SweepOptions options;
  options.threads = threads;
  SweepRunner runner(options);
  for (const SweepPoint& p : TinyGrid()) runner.Add(p);
  return SweepRunner::MergeJson(runner.Run()).Dump();
}

TEST(SweepRunnerTest, MergedJsonIdenticalAcrossThreadCounts) {
  std::string single = RunMerged(1);
  std::string pooled = RunMerged(4);
  EXPECT_EQ(single, pooled);
  // And stable across repeated runs of the same grid.
  EXPECT_EQ(single, RunMerged(1));
}

TEST(SweepRunnerTest, OutcomesKeepAddOrder) {
  SweepOptions options;
  options.threads = 4;
  SweepRunner runner(options);
  std::vector<SweepPoint> grid = TinyGrid();
  for (const SweepPoint& p : grid) runner.Add(p);
  std::vector<SweepOutcome> outcomes = runner.Run();
  ASSERT_EQ(outcomes.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(outcomes[i].name, grid[i].name);
    EXPECT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
    EXPECT_GT(outcomes[i].result.committed, 0u);
  }
}

TEST(SweepRunnerTest, DifferentSeedsDiverge) {
  SweepRunner runner;
  runner.Add("seed1", TinyConfig("2PC", 0.5, 1));
  runner.Add("seed2", TinyConfig("2PC", 0.5, 2));
  std::vector<SweepOutcome> outcomes = runner.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  // Different seeds must produce genuinely different runs (otherwise the
  // determinism assertion above would be vacuous).
  EXPECT_NE(outcomes[0].result.committed, outcomes[1].result.committed);
}

TEST(SweepRunnerTest, PerPointFailuresAreReportedNotFatal) {
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  runner.Add("good", TinyConfig("2PC", 0.0, 1));
  runner.Add("bad", TinyConfig("NoSuchProtocol", 0.0, 1));
  std::vector<SweepOutcome> outcomes = runner.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_TRUE(outcomes[1].status.IsNotFound());
  std::string json = SweepRunner::MergeJson(outcomes).Dump();
  EXPECT_NE(json.find("\"status\":\"NOT_FOUND\""), std::string::npos);
  EXPECT_NE(json.find("\"error\":"), std::string::npos);
  // The quoted protocol name inside the error message must be escaped.
  EXPECT_NE(json.find("\\\"NoSuchProtocol\\\""), std::string::npos);
}

TEST(SweepRunnerTest, EmptySweep) {
  SweepRunner runner;
  std::vector<SweepOutcome> outcomes = runner.Run();
  EXPECT_TRUE(outcomes.empty());
  EXPECT_EQ(SweepRunner::MergeJson(outcomes).Dump(),
            "{\"sweep_size\":0,\"runs\":[]}");
}

TEST(MergeRepeatJsonTest, RepeatOneIsPlainMergeJson) {
  std::vector<SweepOutcome> outcomes(1);
  outcomes[0].name = "p";
  outcomes[0].status = Status::OK();
  outcomes[0].result.protocol = "2PC";
  EXPECT_EQ(MergeRepeatJson(outcomes, 1).Dump(),
            SweepRunner::MergeJson(outcomes).Dump());
}

TEST(MergeRepeatJsonTest, AggregatesMedianMinMaxPerPoint) {
  // Two points x three repeats, synthetic results with known order.
  std::vector<SweepOutcome> outcomes(6);
  const double tputs[] = {100, 300, 200, 50, 70, 60};
  for (size_t i = 0; i < 6; ++i) {
    SweepOutcome& o = outcomes[i];
    std::string base = i < 3 ? "a" : "b";
    o.name = base + "/rep=" + std::to_string(i % 3);
    o.status = Status::OK();
    o.result.protocol = "2PC";
    o.result.workload = "ycsb";
    o.result.seed = 1 + (i % 3);
    o.result.throughput = tputs[i];
    o.result.committed = static_cast<uint64_t>(tputs[i]) * 10;
  }
  std::string json = MergeRepeatJson(outcomes, 3).Dump();
  Json doc;
  ASSERT_TRUE(Json::Parse(json, &doc).ok()) << json;
  auto AsInt = [](const Json* j) {
    int64_t v = 0;
    EXPECT_TRUE(j != nullptr && j->GetInt64(&v).ok());
    return v;
  };
  auto AsDouble = [](const Json* j) {
    double v = 0;
    EXPECT_TRUE(j != nullptr && j->GetDouble(&v).ok());
    return v;
  };
  EXPECT_EQ(AsInt(doc.Find("sweep_size")), 2);
  EXPECT_EQ(AsInt(doc.Find("repeat")), 3);
  const Json& runs = *doc.Find("runs");
  ASSERT_EQ(runs.items().size(), 2u);
  const Json& a = runs.items()[0];
  EXPECT_EQ(a.Find("name")->str(), "a");
  EXPECT_EQ(AsInt(a.Find("runs_ok")), 3);
  EXPECT_EQ(AsInt(a.Find("seed_base")), 1);
  EXPECT_DOUBLE_EQ(AsDouble(a.Find("median")->Find("throughput_txn_s")), 200);
  EXPECT_DOUBLE_EQ(AsDouble(a.Find("min")->Find("throughput_txn_s")), 100);
  EXPECT_DOUBLE_EQ(AsDouble(a.Find("max")->Find("throughput_txn_s")), 300);
  EXPECT_EQ(AsInt(a.Find("median")->Find("committed")), 2000);
  const Json& b = runs.items()[1];
  EXPECT_EQ(b.Find("name")->str(), "b");
  EXPECT_DOUBLE_EQ(AsDouble(b.Find("median")->Find("throughput_txn_s")), 60);
}

TEST(MergeRepeatJsonTest, AggregatedKeysStayInSyncWithResultToJson) {
  // kAggregatedMetrics re-declares ExperimentResult's scalar fields; if a
  // field is renamed (or an aggregated key drifts), this catches it. The
  // reverse direction (a *new* ToJson scalar missing from aggregation) is
  // a judgment call — new fields aren't always aggregation-worthy.
  std::vector<SweepOutcome> outcomes(2);
  for (size_t i = 0; i < 2; ++i) {
    outcomes[i].name = "p/rep=" + std::to_string(i);
    outcomes[i].status = Status::OK();
  }
  std::string json = MergeRepeatJson(outcomes, 2).Dump();
  Json doc;
  ASSERT_TRUE(Json::Parse(json, &doc).ok()) << json;
  const Json* median = doc.Find("runs")->items()[0].Find("median");
  ASSERT_NE(median, nullptr);
  std::string result_json = ExperimentResult().ToJson().Dump();
  for (const auto& m : median->members()) {
    EXPECT_NE(result_json.find("\"" + m.first + "\":"), std::string::npos)
        << "aggregated metric \"" << m.first
        << "\" is not a field of ExperimentResult::ToJson";
  }
}

TEST(MergeRepeatJsonTest, AllFailedGroupReportsFirstError) {
  std::vector<SweepOutcome> outcomes(2);
  outcomes[0].name = "p/rep=0";
  outcomes[0].status = Status::NotFound("no such protocol");
  outcomes[1].name = "p/rep=1";
  outcomes[1].status = Status::NotFound("no such protocol");
  std::string json = MergeRepeatJson(outcomes, 2).Dump();
  Json doc;
  ASSERT_TRUE(Json::Parse(json, &doc).ok()) << json;
  const Json& run = doc.Find("runs")->items()[0];
  EXPECT_EQ(run.Find("name")->str(), "p");
  EXPECT_EQ(run.Find("status")->str(), "NOT_FOUND");
  int64_t runs_ok = -1;
  EXPECT_TRUE(run.Find("runs_ok")->GetInt64(&runs_ok).ok());
  EXPECT_EQ(runs_ok, 0);
  EXPECT_EQ(run.Find("error")->str(), "no such protocol");
}

TEST(SweepRunnerTest, ProgressReachesTotal) {
  std::atomic<size_t> calls{0};
  size_t last_done = 0;
  SweepOptions options;
  options.threads = 2;
  options.on_progress = [&](size_t done, size_t total,
                            const SweepOutcome& outcome) {
    calls++;
    // Calls are serialized by the runner's mutex but may arrive out of
    // completion-count order, so track the maximum.
    if (done > last_done) last_done = done;
    EXPECT_EQ(total, 4u);
    EXPECT_FALSE(outcome.name.empty());
  };
  SweepRunner runner(options);
  for (const SweepPoint& p : TinyGrid()) runner.Add(p);
  runner.Run();
  EXPECT_EQ(calls.load(), 4u);
  EXPECT_EQ(last_done, 4u);
}

}  // namespace
}  // namespace lion
