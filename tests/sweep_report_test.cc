// Report blocks of the merged sweep JSON ("reports" in a sweep spec): each
// derives from the points' configs and base-seed results, one entry per
// declared point under --repeat, and point names of any spelling keep the
// document valid JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep_cli.h"
#include "harness/sweep_spec.h"
#include "sim/topology.h"

namespace lion {
namespace {

Json MustParse(const std::string& text) {
  Json v;
  Status s = Json::Parse(text, &v);
  EXPECT_TRUE(s.ok()) << s.ToString() << "\n" << text;
  return v;
}

/// A spec base on a small cluster with a sub-second run, plus `members`.
std::string TinyBase(const std::string& members) {
  return R"({"warmup_s": 0.05, "duration_s": 0.25,
             "cluster": {"workers_per_node": 2, "partitions_per_node": 4,
                         "records_per_partition": 1000},)" +
         members + "}";
}

/// Runs a sweep document the way lion_bench_cli --sweep --json does and
/// returns the expanded points and the merged document, parsed back.
Json RunSweep(const std::string& text, int repeat,
              std::vector<SweepPoint>* points) {
  Status s = ExpandSweepDocument(MustParse(text), points);
  EXPECT_TRUE(s.ok()) << s.ToString();
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  for (SweepPoint& p : ExpandRepeat(*points, repeat)) {
    runner.Add(std::move(p));
  }
  std::vector<SweepOutcome> outcomes = runner.Run();
  for (const SweepOutcome& o : outcomes) {
    EXPECT_TRUE(o.status.ok()) << o.name << ": " << o.status.ToString();
  }
  return MustParse(MergeSweepJson(*points, outcomes, repeat).Dump());
}

double Number(const Json* v) {
  double d = -1e300;
  EXPECT_NE(v, nullptr);
  if (v != nullptr) {
    EXPECT_TRUE(v->GetDouble(&d).ok());
  }
  return d;
}

TEST(SweepReportTest, ReferenceBoundIsOneWanRoundTripOfThePointTopology) {
  std::vector<SweepPoint> points;
  Json doc = RunSweep(R"({"name": "Geo",
      "base": {"protocol": "2PC", "workload": "ycsb",
               "warmup_s": 0.05, "duration_s": 0.25,
               "cluster": {"workers_per_node": 2, "partitions_per_node": 4,
                           "records_per_partition": 1000},
               "ycsb": {"cross_pattern": "random-node", "cross_ratio": 0.5}},
      "axes": [{"path": "cluster.net.regions", "values": [1, 2],
                "labels": ["regions=1", "regions=2"]}],
      "reports": ["reference"]})",
                      1, &points);
  // The report adds exactly its own block.
  EXPECT_EQ(doc.Find("meta_summary"), nullptr);
  EXPECT_EQ(doc.Find("recovery_panel"), nullptr);
  const Json* reference = doc.Find("reference");
  ASSERT_NE(reference, nullptr);
  const Json* bounds = reference->Find("didona_lower_bound_us");
  const Json* distances = reference->Find("distance_from_bound_us");
  ASSERT_NE(bounds, nullptr);
  ASSERT_NE(distances, nullptr);
  ASSERT_EQ(points.size(), 2u);
  ASSERT_EQ(distances->members().size(), 2u);
  for (size_t i = 0; i < points.size(); ++i) {
    const ExperimentConfig& config = points[i].config;
    Topology topo(config.cluster.net, config.cluster.num_nodes);
    double bound_us =
        2.0 * static_cast<double>(topo.max_cross_region_latency()) / 1000.0;
    EXPECT_DOUBLE_EQ(
        Number(bounds->Find("regions=" +
                            std::to_string(config.cluster.net.regions))),
        bound_us);
    double p99 = Number(doc.Find("runs")->items()[i].Find("result")->Find(
        "p99_us"));
    EXPECT_NEAR(Number(distances->Find(points[i].name)), p99 - bound_us,
                1e-4 * (p99 + bound_us) + 0.5);
  }
  // One region has no WAN; two regions cross one 30 ms link.
  EXPECT_DOUBLE_EQ(Number(bounds->Find("regions=1")), 0.0);
  EXPECT_DOUBLE_EQ(Number(bounds->Find("regions=2")), 60000.0);
}

TEST(SweepReportTest, QuotedLabelsKeepTheDocumentValidJson) {
  std::vector<SweepPoint> points;
  Json doc = RunSweep(R"({"name": "Geo", "base": )" +
                          TinyBase(R"("protocol": "2PC", "workload": "ycsb")") +
                          R"(, "axes": [{"path": "cluster.net.regions",
                                         "values": [2],
                                         "labels": ["regions=\"2\""]}],
                             "reports": ["reference"]})",
                      1, &points);
  const Json* reference = doc.Find("reference");
  ASSERT_NE(reference, nullptr);
  const Json* distances = reference->Find("distance_from_bound_us");
  ASSERT_NE(distances, nullptr);
  EXPECT_NE(distances->Find("Geo/regions=\"2\""), nullptr);
}

TEST(SweepReportTest, MetaSummaryRatiosAreThroughputRatios) {
  std::vector<SweepPoint> points;
  Json doc = RunSweep(R"({"name": "Meta", "base": )" +
                          TinyBase(R"("dynamic_period_s": 0.1,
                                      "workload": "ycsb-hotspot-position")") +
                          R"(, "axes": [{"path": "protocol",
                                         "values": ["meta", "2PC", "Star"]}],
                             "reports": ["meta_summary"]})",
                      1, &points);
  ASSERT_NE(doc.Find("runs"), nullptr);
  const std::vector<Json>& runs = doc.Find("runs")->items();
  ASSERT_EQ(runs.size(), 3u);
  double meta = Number(runs[0].Find("result")->Find("throughput_txn_s"));
  double a = Number(runs[1].Find("result")->Find("throughput_txn_s"));
  double b = Number(runs[2].Find("result")->Find("throughput_txn_s"));
  double best = std::max(a, b), worst = std::min(a, b);
  ASSERT_GT(worst, 0.0);

  const Json* summary = doc.Find("meta_summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_NEAR(Number(summary->Find("meta_txn_s")), meta, 1e-5 * meta);
  EXPECT_NEAR(Number(summary->Find("best_static_txn_s")), best, 1e-5 * best);
  EXPECT_NEAR(Number(summary->Find("worst_static_txn_s")), worst,
              1e-5 * worst);
  EXPECT_NEAR(Number(summary->Find("meta_vs_best")), meta / best, 1e-4);
  EXPECT_NEAR(Number(summary->Find("meta_vs_worst")), meta / worst, 1e-4);
  const Json* switches = runs[0].Find("result")->Find("protocol_switches");
  size_t switch_count = switches == nullptr ? 0 : switches->items().size();
  EXPECT_EQ(Number(summary->Find("switches")),
            static_cast<double>(switch_count));
}

TEST(SweepReportTest, RecoveryPanelReadsConfigsAndBaseSeedRunsUnderRepeat) {
  const std::string schedule = R"("protocol": "2PC", "workload": "ycsb",
      "chaos": {"schedule": ["100ms crash_dirty 1", "150ms recover 1",
                             "200ms crash 2"]})";
  const std::string sweep =
      R"([{"name": "Rec/rejoin_empty", "base": )" + TinyBase(schedule) +
      R"(, "reports": ["recovery_panel"]},
          {"name": "Rec", "base": )" +
      TinyBase(schedule + R"(, "recovery": {"enabled": true})") +
      R"(, "axes": [{"path": "recovery.durability_lag_us",
                     "values": [1000], "labels": ["lag_1000us"]}],
           "reports": ["recovery_panel"]}])";
  std::vector<SweepPoint> points;
  Json repeated = RunSweep(sweep, 2, &points);
  EXPECT_EQ(Number(repeated.Find("repeat")), 2.0);
  const Json* panel = repeated.Find("recovery_panel");
  ASSERT_NE(panel, nullptr);
  // One entry per declared point, spanning both specs.
  ASSERT_EQ(panel->items().size(), 2u);
  const Json& empty = panel->items()[0];
  const Json& lagged = panel->items()[1];
  EXPECT_EQ(empty.Find("name")->str(), "Rec/rejoin_empty");
  EXPECT_EQ(lagged.Find("name")->str(), "Rec/lag_1000us");
  EXPECT_EQ(Number(empty.Find("durability_lag_us")), -1.0);
  EXPECT_EQ(Number(lagged.Find("durability_lag_us")), 1000.0);
  for (const Json& entry : panel->items()) {
    double availability = Number(entry.Find("post_crash_availability"));
    EXPECT_GE(availability, 0.0);
    EXPECT_LE(availability, 1.0);
  }
  // The base-seed run is the run a --repeat=1 sweep makes.
  std::vector<SweepPoint> single_points;
  Json single = RunSweep(sweep, 1, &single_points);
  ASSERT_NE(single.Find("recovery_panel"), nullptr);
  EXPECT_EQ(panel->Dump(), single.Find("recovery_panel")->Dump());
}

TEST(SweepReportTest, UnknownReportIsRejected) {
  SweepSpec spec;
  Status s = SweepSpec::FromJson(
      MustParse(R"({"name": "x", "reports": ["didona"]})"), &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("didona"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("recovery_panel"), std::string::npos)
      << s.message();
}

}  // namespace
}  // namespace lion
