// Schema-layer tests: exact JSON round trips for every registered
// protocol/workload config, unknown-key and type errors with dotted paths,
// field validation, and CLI-style SetByPath overrides.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/config_schema.h"
#include "harness/experiment_config.h"
#include "harness/registry.h"

namespace lion {
namespace {

std::string EmitText(const ExperimentConfig& cfg) {
  return EmitExperimentConfig(cfg).Dump();
}

/// `value` nested under the keys of `dotted`: "a.b" -> {"a":{"b":value}}.
Json AtPath(const std::string& dotted, Json value) {
  std::vector<std::string> keys;
  std::stringstream segments(dotted);
  for (std::string key; std::getline(segments, key, '.');) {
    keys.push_back(key);
  }
  for (auto key = keys.rbegin(); key != keys.rend(); ++key) {
    Json object = Json::Object();
    object.Set(*key, std::move(value));
    value = std::move(object);
  }
  return value;
}

/// parse(emit(cfg)) must reproduce cfg exactly; equality is judged on the
/// re-emitted text, which covers every declared field.
void ExpectRoundTripExact(const ExperimentConfig& cfg) {
  std::string text = EmitText(cfg);
  Json doc;
  ASSERT_TRUE(Json::Parse(text, &doc).ok()) << text;
  ExperimentConfig back;
  Status s = ParseExperimentConfig(doc, &back);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(EmitText(back), text);
}

TEST(ConfigSchemaTest, RoundTripForEveryRegisteredProtocolAndWorkload) {
  for (const std::string& protocol : ProtocolRegistry::Global().Names()) {
    for (const std::string& workload : WorkloadRegistry::Global().Names()) {
      ExperimentConfig cfg;
      cfg.protocol = protocol;
      cfg.workload = workload;
      ExpectRoundTripExact(cfg);
    }
  }
}

TEST(ConfigSchemaTest, RoundTripSurvivesNonDefaultValuesEverywhere) {
  ExperimentConfig cfg;
  cfg.protocol = "Lion(B)";
  cfg.workload = "ycsb-hotspot-position";
  cfg.cluster.num_nodes = 7;
  cfg.cluster.workers_per_node = 3;
  cfg.cluster.records_per_partition = 123456789;
  cfg.cluster.epoch_interval = 12500 * kMicrosecond;  // 12.5 ms
  cfg.cluster.materialize_secondaries = true;
  cfg.cluster.net.regions = 2;
  cfg.cluster.net.region_latency_ms = {0.025, 37.5, 37.5, 0.025};
  cfg.cluster.net.jitter_pct = 0.15;
  cfg.ycsb.cross_pattern = CrossPattern::kRandomNode;
  cfg.ycsb.cross_ratio = 0.35;
  cfg.ycsb.skew_factor = 0.99;
  cfg.tpcc.payment_ratio = 0.43;
  cfg.dynamic_period = 2500 * kMillisecond;
  cfg.concurrency = 77;
  cfg.warmup = 300 * kMillisecond;
  cfg.duration = 4700 * kMillisecond;
  // Larger than 2^53: survives only because number lexemes are lossless.
  cfg.seed = 18446744073709551557ull;
  cfg.lion.planner.interval = 125 * kMillisecond;
  cfg.lion.planner.min_history = 2048;
  cfg.lion.planner.plan.cost.wm = 12.5;
  cfg.lion.planner.plan.cost.remote_access = 6.5;
  cfg.predictor.sample_interval = 40 * kMillisecond;
  cfg.predictor.gamma = 0.22;
  cfg.predictor.prediction_scale = 0.005;
  cfg.predictor.lstm.hidden = 32;
  cfg.clay.monitor_interval = 750 * kMillisecond;
  cfg.clay.clump_budget = 5;
  ExpectRoundTripExact(cfg);

  // Spot-check semantic recovery (not just textual equality).
  Json doc;
  ASSERT_TRUE(Json::Parse(EmitText(cfg), &doc).ok());
  ExperimentConfig back;
  ASSERT_TRUE(ParseExperimentConfig(doc, &back).ok());
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.cluster.epoch_interval, cfg.cluster.epoch_interval);
  EXPECT_EQ(back.ycsb.cross_pattern, CrossPattern::kRandomNode);
  EXPECT_TRUE(back.cluster.materialize_secondaries);
  EXPECT_EQ(back.cluster.net.region_latency_ms,
            cfg.cluster.net.region_latency_ms);
  EXPECT_DOUBLE_EQ(back.lion.planner.plan.cost.remote_access, 6.5);
  EXPECT_EQ(back.duration, 4700 * kMillisecond);
  EXPECT_EQ(back.predictor.lstm.hidden, 32);
}

TEST(ConfigSchemaTest, PartialConfigKeepsDefaults) {
  Json doc;
  ASSERT_TRUE(
      Json::Parse("{\"protocol\":\"2PC\",\"ycsb\":{\"cross_ratio\":0.5}}",
                  &doc)
          .ok());
  ExperimentConfig cfg;
  ASSERT_TRUE(ParseExperimentConfig(doc, &cfg).ok());
  EXPECT_EQ(cfg.protocol, "2PC");
  EXPECT_DOUBLE_EQ(cfg.ycsb.cross_ratio, 0.5);
  ExperimentConfig defaults;
  EXPECT_EQ(cfg.workload, defaults.workload);
  EXPECT_EQ(cfg.duration, defaults.duration);
  EXPECT_EQ(cfg.cluster.num_nodes, defaults.cluster.num_nodes);
}

TEST(ConfigSchemaTest, UnknownKeyReportsDottedPath) {
  Json doc;
  ASSERT_TRUE(Json::Parse("{\"ycsb\":{\"cross_ratioo\":0.5}}", &doc).ok());
  ExperimentConfig cfg;
  Status s = ParseExperimentConfig(doc, &cfg);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("ycsb.cross_ratioo"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("unknown field"), std::string::npos);

  // Deleted knobs: the second copy of the cost weights, the three Lion
  // knobs that the registry variant overwrote, the LSTM dimensions (fixed
  // at 1), the meta, clump and geo groups, and fields that became
  // constants.
  // Each is rejected as a flag and as a config key, at its first unknown
  // segment.
  const std::pair<std::string, std::string> deleted[] = {
      {"lion.cost.wr", "lion.cost"},
      {"lion.cost.wm", "lion.cost"},
      {"lion.cost.remote_access", "lion.cost"},
      {"lion.planner.strategy", "lion.planner.strategy"},
      {"lion.batch_mode", "lion.batch_mode"},
      {"lion.group_commit", "lion.group_commit"},
      {"predictor.lstm.input_dim", "predictor.lstm.input_dim"},
      {"predictor.lstm.output_dim", "predictor.lstm.output_dim"},
      {"meta.baseline", "meta"},
      {"cluster.op_local_cost_us", "cluster.op_local_cost_us"},
      {"chaos.track_commits", "chaos.track_commits"},
      {"cluster.net.one_way_latency_us", "cluster.net.one_way_latency_us"},
      {"ycsb.zipf_theta", "ycsb.zipf_theta"},
      {"lion.enable_planner", "lion.enable_planner"},
      {"lion.planner.clump.alpha", "lion.planner.clump"},
      {"chaos.unavailable_backoff_us", "chaos.unavailable_backoff_us"},
      {"lion.geo.replica_regions", "lion.geo"},
  };
  for (const auto& [path, reported] : deleted) {
    ExperimentConfig flag_cfg;
    Status flag = SetExperimentFlag(&flag_cfg, path, "1");
    ASSERT_TRUE(flag.IsInvalidArgument()) << path;
    EXPECT_EQ(flag.message().rfind(reported + ": unknown field", 0), 0u)
        << flag.message();

    Json doc = AtPath(path, Json::Int(1));
    ExperimentConfig doc_cfg;
    Status parsed = ParseExperimentConfig(doc, &doc_cfg);
    ASSERT_TRUE(parsed.IsInvalidArgument()) << doc.Dump();
    EXPECT_EQ(parsed.message().rfind(reported + ": unknown field", 0), 0u)
        << parsed.message();
  }
}

TEST(ConfigSchemaTest, TypeMismatchReportsDottedPath) {
  Json doc;
  ASSERT_TRUE(Json::Parse("{\"cluster\":{\"num_nodes\":\"four\"}}", &doc)
                  .ok());
  ExperimentConfig cfg;
  Status s = ParseExperimentConfig(doc, &cfg);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("cluster.num_nodes"), std::string::npos)
      << s.message();
}

TEST(ConfigSchemaTest, EveryValueTypeFailsWithItsExactMessage) {
  // Each case's value is JSON text, given verbatim as a flag value and
  // nested at its path in a config document; both routes must fail with
  // the same message. A parse failure stops the flag or the document; a
  // check failure parses and then fails validation.
  struct Case {
    const char* path;
    const char* value;
    bool fails_check;
    const char* message;
  };
  const Case kCases[] = {
      {"cluster.materialize_secondaries", "1", false,
       "cluster.materialize_secondaries: expected bool, got number"},
      {"cluster.num_nodes", "\"four\"", false,
       "cluster.num_nodes: expected integer, got string"},
      {"cluster.num_nodes", "2.5", false,
       "cluster.num_nodes: expected integer, got 2.5"},
      {"cluster.num_nodes", "4294967296", false,
       "cluster.num_nodes: 4294967296 out of int range"},
      {"cluster.num_nodes", "0", true, "cluster.num_nodes: 0 must be >= 1"},
      {"seed", "-1", false, "seed: expected unsigned integer, got -1"},
      {"cluster.record_bytes", "0", true,
       "cluster.record_bytes: 0 must be >= 1"},
      {"ycsb.cross_ratio", "\"half\"", false,
       "ycsb.cross_ratio: expected number, got string"},
      {"ycsb.cross_ratio", "1.3", true, "ycsb.cross_ratio: 1.3 not in [0,1]"},
      {"protocol", "[1]", false, "protocol: expected string, got array"},
      {"protocol", "\"\"", true, "protocol: must not be empty"},
      {"ycsb.cross_pattern", "2", false,
       "ycsb.cross_pattern: expected string, got number"},
      {"ycsb.cross_pattern", "\"diagonal\"", false,
       "ycsb.cross_pattern: unknown value \"diagonal\" (one of: paired, "
       "random-node)"},
      {"cluster.net.node_regions", "1", false,
       "cluster.net.node_regions: expected array, got number"},
      {"cluster.net.node_regions", "[0,1.5]", false,
       "cluster.net.node_regions[1]: expected integer, got 1.5"},
      {"cluster.net.node_regions", "[0,4294967296]", false,
       "cluster.net.node_regions[1]: 4294967296 out of int range"},
      {"cluster.net.node_regions", "[0,-1]", true,
       "cluster.net.node_regions[1]: -1 must be >= 0"},
      {"cluster.net.region_latency_ms", "\"x\"", false,
       "cluster.net.region_latency_ms: expected array, got string"},
      {"cluster.net.region_latency_ms", "[1,\"x\"]", false,
       "cluster.net.region_latency_ms[1]: expected number, got string"},
      {"cluster.net.region_latency_ms", "[1,-2]", true,
       "cluster.net.region_latency_ms[1]: -2 must be >= 0"},
      {"chaos.schedule", "\"100ms heal\"", false,
       "chaos.schedule: expected array, got string"},
      {"chaos.schedule", "[\"100ms heal\",2]", false,
       "chaos.schedule[1]: expected string, got number"},
      {"chaos.schedule", "[\"100ms heal\",\"200ms crash\"]", true,
       "chaos.schedule[1]: \"200ms crash\": crash takes 1 argument(s)"},
      {"duration_s", "\"long\"", false,
       "duration_s: expected number, got string"},
      {"duration_s", "0", true, "duration_s: 0 must be positive"},
      // A time field's check judges the value in the flag's own unit.
      {"duration_s", "-0.5", true, "duration_s: -0.5 must be positive"},
      {"warmup_s", "-1", true, "warmup_s: -1 must be >= 0"},
      {"lion.planner.interval_ms", "-3", true,
       "lion.planner.interval_ms: -3 must be positive"},
  };
  // Applies one route's outcome to the case: the parse status, then (if
  // it parsed) the validation status.
  auto expect_failure = [](const Case& c, const Status& parsed,
                           const ExperimentConfig& cfg) {
    if (c.fails_check) {
      ASSERT_TRUE(parsed.ok()) << parsed.ToString();
      Status checked = ValidateExperimentConfig(cfg);
      ASSERT_TRUE(checked.IsInvalidArgument()) << checked.ToString();
      EXPECT_EQ(checked.message(), c.message);
    } else {
      ASSERT_TRUE(parsed.IsInvalidArgument()) << parsed.ToString();
      EXPECT_EQ(parsed.message(), c.message);
    }
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(c.path) + "=" + c.value);
    ExperimentConfig flag_cfg;
    expect_failure(c, SetExperimentFlag(&flag_cfg, c.path, c.value),
                   flag_cfg);

    Json value;
    ASSERT_TRUE(Json::Parse(c.value, &value).ok());
    ExperimentConfig doc_cfg;
    expect_failure(
        c, ParseExperimentConfig(AtPath(c.path, std::move(value)), &doc_cfg),
        doc_cfg);
  }
}

TEST(ConfigSchemaTest, EnumParsingAndErrors) {
  ExperimentConfig cfg;
  ASSERT_TRUE(
      SetExperimentFlag(&cfg, "ycsb.cross_pattern", "random-node").ok());
  EXPECT_EQ(cfg.ycsb.cross_pattern, CrossPattern::kRandomNode);
  Status s = SetExperimentFlag(&cfg, "ycsb.cross_pattern", "diagonal");
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("paired"), std::string::npos) << s.message();
}

TEST(ConfigSchemaTest, ValidationReportsRangeWithPath) {
  ExperimentConfig cfg;
  cfg.ycsb.cross_ratio = 1.3;
  Status s = ValidateExperimentConfig(cfg);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "ycsb.cross_ratio: 1.3 not in [0,1]");

  cfg = ExperimentConfig{};
  cfg.duration = 0;
  s = ValidateExperimentConfig(cfg);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("duration_s"), std::string::npos);

  cfg = ExperimentConfig{};
  cfg.lion.planner.interval = 0;
  s = ValidateExperimentConfig(cfg);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("lion.planner.interval_ms"), std::string::npos);

  EXPECT_TRUE(ValidateExperimentConfig(ExperimentConfig{}).ok());
}

TEST(ConfigSchemaTest, SetByPathParsesUnitsAndTypes) {
  ExperimentConfig cfg;
  ASSERT_TRUE(SetExperimentFlag(&cfg, "lion.planner.interval_ms", "5").ok());
  EXPECT_EQ(cfg.lion.planner.interval, 5 * kMillisecond);
  ASSERT_TRUE(SetExperimentFlag(&cfg, "duration_s", "0.25").ok());
  EXPECT_EQ(cfg.duration, 250 * kMillisecond);
  ASSERT_TRUE(SetExperimentFlag(&cfg, "protocol", "2PC").ok());
  EXPECT_EQ(cfg.protocol, "2PC");
  ASSERT_TRUE(
      SetExperimentFlag(&cfg, "cluster.materialize_secondaries", "true")
          .ok());
  EXPECT_TRUE(cfg.cluster.materialize_secondaries);
  ASSERT_TRUE(SetExperimentFlag(&cfg, "seed", "42").ok());
  EXPECT_EQ(cfg.seed, 42u);

  Status s = SetExperimentFlag(&cfg, "no.such.path", "1");
  ASSERT_TRUE(s.IsInvalidArgument());
  s = SetExperimentFlag(&cfg, "cluster.num_nodes", "many");
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("cluster.num_nodes"), std::string::npos);
  // A dotted path through a scalar is rejected, not silently ignored.
  s = SetExperimentFlag(&cfg, "duration_s.extra", "1");
  ASSERT_TRUE(s.IsInvalidArgument());
}

TEST(ConfigSchemaTest, ListPathsCoversNestedLeaves) {
  std::vector<std::pair<std::string, std::string>> paths;
  ExperimentConfigSchema().ListPaths("", &paths);
  ASSERT_EQ(paths.size(), 50u);  // the full declared flag surface
  auto has = [&paths](const std::string& p) {
    for (const auto& e : paths) {
      if (e.first == p) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("protocol"));
  EXPECT_TRUE(has("cluster.net.jitter_pct"));
  EXPECT_TRUE(has("lion.planner.plan.cost.wm"));
  EXPECT_TRUE(has("predictor.lstm.hidden"));
  EXPECT_FALSE(has("lion"));  // nested structs are not leaves
}

TEST(ConfigFlagGroupsTest, GroupsFollowDeclarationStructure) {
  std::vector<ConfigFlagGroup> groups =
      ListFlagGroups(ExperimentConfigSchema());
  ASSERT_GE(groups.size(), 7u);
  // Root scalars come first, then one group per nested field in order.
  EXPECT_EQ(groups[0].name, "");
  bool root_has_protocol = false;
  for (const auto& f : groups[0].flags) {
    root_has_protocol |= f.first == "protocol";
  }
  EXPECT_TRUE(root_has_protocol);
  const ConfigFlagGroup* cluster = nullptr;
  const ConfigFlagGroup* clay = nullptr;
  for (const ConfigFlagGroup& g : groups) {
    if (g.name == "cluster") cluster = &g;
    if (g.name == "clay") clay = &g;
  }
  ASSERT_NE(cluster, nullptr);
  ASSERT_NE(clay, nullptr);
  EXPECT_FALSE(cluster->help.empty());
  // Group flags are fully qualified and recurse into nested structs.
  bool has_net_leaf = false;
  for (const auto& f : cluster->flags) {
    has_net_leaf |= f.first == "cluster.net.regions";
  }
  EXPECT_TRUE(has_net_leaf);
  ASSERT_EQ(clay->flags.size(), 2u);
  EXPECT_EQ(clay->flags[0].first, "clay.monitor_interval_ms");
  EXPECT_EQ(clay->flags[1].first, "clay.clump_budget");

  // The groups flatten back to exactly ListPaths (same leaves, same order
  // within groups).
  std::vector<std::pair<std::string, std::string>> paths;
  ExperimentConfigSchema().ListPaths("", &paths);
  size_t total = 0;
  for (const ConfigFlagGroup& g : groups) total += g.flags.size();
  EXPECT_EQ(total, paths.size());
}

TEST(ConfigFlagGroupsTest, MarkdownDumpContainsEveryFlag) {
  std::string md = FlagsMarkdown(ExperimentConfigSchema(), "flag reference");
  EXPECT_NE(md.find("# flag reference"), std::string::npos);
  EXPECT_NE(md.find("## cluster"), std::string::npos);
  EXPECT_NE(md.find("| flag | description |"), std::string::npos);
  std::vector<std::pair<std::string, std::string>> paths;
  ExperimentConfigSchema().ListPaths("", &paths);
  for (const auto& p : paths) {
    EXPECT_NE(md.find("`--" + p.first + "`"), std::string::npos)
        << "missing flag " << p.first;
  }

  // The checked-in reference is this dump, as `lion_bench_cli --flags=md`
  // prints it.
  std::ifstream file(std::string(LION_SOURCE_DIR) + "/docs/flags.md");
  ASSERT_TRUE(file.good()) << "cannot read docs/flags.md";
  std::stringstream checked_in;
  checked_in << file.rdbuf();
  EXPECT_EQ(FlagsMarkdown(ExperimentConfigSchema(),
                          "lion_bench_cli flag reference"),
            checked_in.str())
      << "docs/flags.md is stale: regenerate it with "
         "`lion_bench_cli --flags=md > docs/flags.md`";
}

}  // namespace
}  // namespace lion
