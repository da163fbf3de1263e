// Meta-protocol tests: fixed-seed determinism of the merged result JSON,
// adaptive flipping on drifting workloads, safe handoff (no stranded
// partitions, no parked stragglers), meta-off emission parity, and the
// seasonal-naive predictor (per-class rule and the per-partition forecast
// path the meta protocol consumes).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/seasonal_predictor.h"
#include "harness/experiment.h"
#include "protocols/meta_protocol.h"
#include "result_members.h"

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

/// A drifting hotspot over a small cluster: the phase changes every 200 ms,
/// so a 700 ms run crosses several regimes and the meta protocol has both
/// reason and time (70 epochs) to flip partitions.
ExperimentBuilder MetaBuilder() {
  ExperimentBuilder builder;
  builder.Protocol("meta").Workload("ycsb-hotspot-position");
  builder.config().cluster = SmallCluster();
  builder.DynamicPeriod(200 * kMillisecond);
  builder.Warmup(100 * kMillisecond).Duration(600 * kMillisecond).Seed(7);
  return builder;
}

TEST(MetaExperimentTest, FixedSeedRunsAreByteIdentical) {
  ExperimentResult first, second;
  ASSERT_TRUE(MetaBuilder().Run(&first).ok());
  ASSERT_TRUE(MetaBuilder().Run(&second).ok());
  EXPECT_GT(first.committed, 0u);
  EXPECT_EQ(first.ToJson().Dump(), second.ToJson().Dump());
}

TEST(MetaExperimentTest, FlipsPartitionsOnDriftingWorkload) {
  std::unique_ptr<Experiment> exp;
  ExperimentBuilder builder = MetaBuilder();
  ASSERT_TRUE(builder.Build(&exp).ok());
  ExperimentResult res = exp->Run();

  const Json& m = res.subsystems;
  ASSERT_EQ(LengthAt(m, "meta.children"), 2u);
  const std::vector<Json>& children = MemberAt(m, "meta.children")->items();
  EXPECT_EQ(children[0].str(), "2PC");
  EXPECT_EQ(children[1].str(), "Star");
  EXPECT_GE(LengthAt(m, "protocol_switches"), 1u);
  EXPECT_EQ(UintAt(m, "meta.switches"), LengthAt(m, "protocol_switches"));

  auto* meta = dynamic_cast<MetaProtocol*>(exp->protocol());
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->switches_completed(), LengthAt(m, "protocol_switches"));
  // Safe handoff: nothing mid-switch, nothing parked once the run is over.
  EXPECT_FALSE(meta->SwitchInProgress());
  EXPECT_EQ(meta->parked(), 0u);

  // The assignment histogram covers every partition exactly once.
  ASSERT_EQ(LengthAt(m, "meta.final_assignment"), 2u);
  uint64_t assigned = 0;
  for (const Json& n : MemberAt(m, "meta.final_assignment")->items()) {
    uint64_t count = 0;
    EXPECT_TRUE(n.GetUint64(&count).ok());
    assigned += count;
  }
  EXPECT_EQ(assigned, static_cast<uint64_t>(SmallCluster().num_nodes *
                                            SmallCluster().partitions_per_node));

  std::string json = res.ToJson().Dump();
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"protocol_switches\""), std::string::npos);
}

TEST(MetaExperimentTest, MetaOffEmitsNoMetaFields) {
  ExperimentBuilder builder;
  builder.Protocol("2PC").Workload("ycsb");
  builder.config().cluster = SmallCluster();
  builder.Warmup(50 * kMillisecond).Duration(200 * kMillisecond).Seed(7);

  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  EXPECT_EQ(res.subsystems.Find("meta"), nullptr);
  std::string json = res.ToJson().Dump();
  EXPECT_EQ(json.find("\"meta\""), std::string::npos);
  EXPECT_EQ(json.find("protocol_switches"), std::string::npos);
}

TEST(MetaExperimentTest, PredictorOffStillAdapts) {
  // With the predictor disabled the decision rule falls back to the
  // observed EWMAs alone; the drifting workload must still trigger flips.
  ExperimentBuilder builder = MetaBuilder();
  builder.config().predictor.kind = "off";
  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  EXPECT_NE(res.subsystems.Find("meta"), nullptr);
  EXPECT_GE(LengthAt(res.subsystems, "protocol_switches"), 1u);
}

// --- seasonal-naive predictor ------------------------------------------------

/// Exposes the protected per-class forecast rule for direct testing.
class SeasonalProbe : public SeasonalPredictor {
 public:
  explicit SeasonalProbe(PredictorConfig cfg) : SeasonalPredictor(cfg) {}
  double Forecast(const std::vector<double>& series, int horizon) const {
    WorkloadClass cls;
    cls.series = series;
    return ForecastClass(cls, horizon);
  }
};

TEST(SeasonalPredictorTest, ForecastRepeatsLastSeason) {
  PredictorConfig cfg;
  cfg.seasonal_period = 4;
  SeasonalProbe probe(cfg);
  const std::vector<double> s = {1, 2, 3, 4, 10, 20, 30, 40};
  // ŷ(T+h) = y(T+h−m): indices 4..7 are the last observed season.
  EXPECT_DOUBLE_EQ(probe.Forecast(s, 1), 10.0);
  EXPECT_DOUBLE_EQ(probe.Forecast(s, 2), 20.0);
  EXPECT_DOUBLE_EQ(probe.Forecast(s, 4), 40.0);
  // Beyond one season the forecast wraps: h and h+m agree.
  EXPECT_DOUBLE_EQ(probe.Forecast(s, 5), 10.0);
  // Nonpositive horizons clamp to one interval ahead.
  EXPECT_DOUBLE_EQ(probe.Forecast(s, 0), 10.0);
}

TEST(SeasonalPredictorTest, ShortSeriesFallsBackToNaive) {
  PredictorConfig cfg;
  cfg.seasonal_period = 4;
  SeasonalProbe probe(cfg);
  EXPECT_DOUBLE_EQ(probe.Forecast({5, 7}, 1), 7.0);  // < one full season
  EXPECT_DOUBLE_EQ(probe.Forecast({}, 1), 0.0);

  cfg.seasonal_period = 1;  // m = 1 degenerates to the plain naive rule
  SeasonalProbe naive(cfg);
  EXPECT_DOUBLE_EQ(naive.Forecast({3, 8}, 3), 8.0);
}

TEST(SeasonalPredictorTest, ForecastPartitionsTracksPeriodicLoad) {
  PredictorConfig cfg;
  cfg.sample_interval = 10 * kMillisecond;
  cfg.seasonal_period = 2;
  SeasonalPredictor pred(cfg);
  // Partition 1 alternates 2 and 6 txns per interval (period 2).
  SimTime t = 0;
  for (int interval = 0; interval < 6; ++interval) {
    int count = (interval % 2 == 0) ? 2 : 6;
    for (int i = 0; i < count; ++i) pred.OnTxn({1}, t);
    t += cfg.sample_interval;
  }
  std::vector<double> out;
  pred.ForecastPartitions(t, /*horizon=*/1, &out);
  // Last closed season is (2, 6); one interval ahead of ...,2,6 repeats 2.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(SeasonalPredictorTest, RunsEndToEndUnderLion) {
  ExperimentBuilder builder;
  builder.Protocol("Lion").Workload("ycsb-hotspot-interval");
  builder.config().cluster = SmallCluster();
  builder.config().predictor.kind = "seasonal";
  builder.config().predictor.seasonal_period = 5;
  builder.DynamicPeriod(200 * kMillisecond);
  builder.Warmup(100 * kMillisecond).Duration(400 * kMillisecond).Seed(7);
  ExperimentResult res;
  ASSERT_TRUE(builder.Run(&res).ok());
  EXPECT_GT(res.committed, 0u);
}

}  // namespace
}  // namespace lion
