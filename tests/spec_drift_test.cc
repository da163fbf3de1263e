// Checked-in grids stay runnable and complete: every config in
// examples/configs/ parses, expands and validates point by point, the
// figures whose protocol lineup is "every registered protocol of one
// execution mode" list exactly that lineup, so a newly registered protocol
// fails here until the figure grids include it, and every config flag is
// named by a checked-in config, so a new knob without a caller fails here
// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/config_schema.h"
#include "harness/experiment.h"
#include "harness/registry.h"
#include "harness/sweep_spec.h"

namespace lion {
namespace {

const std::string kConfigDir =
    std::string(LION_SOURCE_DIR) + "/examples/configs/";
const std::string kBenchWorkloadDir =
    std::string(LION_SOURCE_DIR) + "/bench/suite/workloads/";

std::vector<std::string> JsonFiles(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::string> ConfigFiles() { return JsonFiles(kConfigDir); }

Json MustLoad(const std::string& path) {
  Json doc;
  Status s = Json::ParseFile(path, &doc);
  EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
  return doc;
}

/// A sweep document is one spec object (it has a "name") or an array of
/// them; anything else is a single-run config for --config.
bool IsSweepDocument(const Json& doc) {
  return doc.is_array() || doc.Find("name") != nullptr;
}

TEST(SpecDriftTest, EveryCheckedInConfigExpandsAndValidates) {
  std::vector<std::string> files = ConfigFiles();
  ASSERT_FALSE(files.empty()) << kConfigDir;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    Json doc = MustLoad(path);
    if (!IsSweepDocument(doc)) {
      ExperimentConfig config;
      Status s = ParseExperimentConfig(doc, &config);
      ASSERT_TRUE(s.ok()) << s.ToString();
      s = ExperimentBuilder(config).Validate();
      EXPECT_TRUE(s.ok()) << s.ToString();
      continue;
    }
    std::vector<SweepPoint> points;
    Status s = ExpandSweepDocument(doc, &points);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_FALSE(points.empty());
    std::set<std::string> names;
    for (const SweepPoint& p : points) {
      s = ExperimentBuilder(p.config).Validate();
      EXPECT_TRUE(s.ok()) << p.name << ": " << s.ToString();
      // Reports and the merged JSON key points by name.
      EXPECT_TRUE(names.insert(p.name).second) << "duplicate point " << p.name;
    }
  }
}

TEST(SpecDriftTest, EveryCheckedInConfigRoundTripsThroughTheSchema) {
  // Every run a checked-in file declares emits a config whose text parses
  // back to the same config: --print-config output is a loadable --config.
  for (const std::string& path : ConfigFiles()) {
    SCOPED_TRACE(path);
    Json doc = MustLoad(path);
    std::vector<SweepPoint> points;
    if (IsSweepDocument(doc)) {
      Status s = ExpandSweepDocument(doc, &points);
      ASSERT_TRUE(s.ok()) << s.ToString();
    } else {
      points.emplace_back();
      Status s = ParseExperimentConfig(doc, &points.back().config);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    for (const SweepPoint& p : points) {
      std::string text = EmitExperimentConfig(p.config).Dump();
      Json emitted;
      ASSERT_TRUE(Json::Parse(text, &emitted).ok()) << p.name;
      ExperimentConfig back;
      Status s = ParseExperimentConfig(emitted, &back);
      ASSERT_TRUE(s.ok()) << p.name << ": " << s.ToString();
      EXPECT_EQ(EmitExperimentConfig(back).Dump(), text) << p.name;
    }
  }
}

/// The lineup a figure of `mode` plots, as (protocol value, point label)
/// pairs in registry order: parenthesized names are the Fig. 6 / Table II
/// ablation variants and "meta" is a composite router with its own figure,
/// so both stay out — except "Lion(B)", the full batch system, which the
/// batch figures list last under the paper's plain "Lion" label.
std::vector<std::pair<std::string, std::string>> Lineup(ExecutionMode mode) {
  std::vector<std::pair<std::string, std::string>> lineup;
  for (const std::string& name :
       ProtocolRegistry::Global().NamesByMode(mode)) {
    if (name.find('(') != std::string::npos || name == "meta") continue;
    lineup.emplace_back(name, name);
  }
  if (mode == ExecutionMode::kBatch) lineup.emplace_back("Lion(B)", "Lion");
  return lineup;
}

TEST(SpecDriftTest, FigureLineupsListEveryRegisteredProtocol) {
  struct Figure {
    const char* file;
    const char* spec;
    ExecutionMode mode;
  };
  const Figure kFigures[] = {
      {"fig7_cross_ratio.json", "Fig7a", ExecutionMode::kStandard},
      {"fig7_cross_ratio.json", "Fig7b", ExecutionMode::kStandard},
      {"fig8_dynamic_standard.json", "Fig8a/interval",
       ExecutionMode::kStandard},
      {"fig8_dynamic_standard.json", "Fig8b/position",
       ExecutionMode::kStandard},
      {"fig9_cross_ratio_batch.json", "Fig9a", ExecutionMode::kBatch},
      {"fig9_cross_ratio_batch.json", "Fig9b", ExecutionMode::kBatch},
      {"fig10_dynamic_batch.json", "Fig10a/interval", ExecutionMode::kBatch},
      {"fig10_dynamic_batch.json", "Fig10b/position", ExecutionMode::kBatch},
      {"fig11_scalability.json", "Fig11a", ExecutionMode::kStandard},
      {"fig11_scalability.json", "Fig11b", ExecutionMode::kBatch},
      {"fig14_latency.json", "Fig14", ExecutionMode::kBatch},
  };
  for (const Figure& fig : kFigures) {
    SCOPED_TRACE(std::string(fig.file) + " " + fig.spec);
    Json doc = MustLoad(kConfigDir + fig.file);
    std::vector<Json> items = doc.is_array() ? doc.items()
                                             : std::vector<Json>{doc};
    const SweepAxis* protocols = nullptr;
    SweepSpec spec;
    for (const Json& item : items) {
      ASSERT_TRUE(SweepSpec::FromJson(item, &spec).ok());
      if (spec.name != fig.spec) continue;
      for (const SweepAxis& axis : spec.axes) {
        if (axis.path == "protocol") protocols = &axis;
      }
      break;
    }
    ASSERT_NE(protocols, nullptr) << "no spec with a protocol axis";
    std::vector<std::pair<std::string, std::string>> listed;
    for (size_t i = 0; i < protocols->values.size(); ++i) {
      listed.emplace_back(protocols->values[i].str(), protocols->labels[i]);
    }
    EXPECT_EQ(listed, Lineup(fig.mode));
  }
}

/// Adds the dotted path of every scalar or array under `v` (a config object
/// or a value assigned at `prefix`) to `named`.
void AddNamedPaths(const std::string& prefix, const Json& v,
                   std::set<std::string>* named) {
  if (!v.is_object()) {
    named->insert(prefix);
    return;
  }
  for (const Json::Member& m : v.members()) {
    AddNamedPaths(JoinFieldPath(prefix, m.first), m.second, named);
  }
}

TEST(SpecDriftTest, EveryFlagIsNamedByACheckedInConfig) {
  // A config field earns its flag by a caller. These fields have none in a
  // checked-in config; each is kept for the stated reason.
  const std::map<std::string, std::string> kKept = {
      {"ycsb.partition_offset", "set by workload/dynamic.cc"},
      {"tpcc.payment_ratio", "set by examples/tpcc_neworder.cpp"},
      {"predictor.history_window", "set by examples/predictor_forecast.cpp"},
      {"predictor.prediction_scale", "set by examples/predictor_forecast.cpp"},
      {"predictor.lstm.hidden", "set by examples/predictor_forecast.cpp"},
      {"cluster.record_bytes", "set by the fixed-seed digests and goldens"},
      {"ycsb.ops_per_txn", "set by the fixed-seed digests and goldens"},
      {"tpcc.items", "set by the fixed-seed digests and goldens"},
      {"recovery.catch_up_batch", "set by the fixed-seed digests and goldens"},
      {"clay.monitor_interval_ms", "set by the ClayMonitorYcsb digest"},
      {"clay.clump_budget", "awaits the audit of Clay's clump"},
      {"lion.planner.plan.cost.remote_access",
       "awaits the audit of the Eq. 3/4 weights"},
      {"cluster.materialize_secondaries",
       "the oracle of ReplicationConvergenceTest"},
  };

  std::set<std::string> named;
  for (const std::string& path : ConfigFiles()) {
    Json doc = MustLoad(path);
    if (!IsSweepDocument(doc)) {
      AddNamedPaths("", doc, &named);
      continue;
    }
    std::vector<Json> specs = doc.is_array() ? doc.items()
                                             : std::vector<Json>{doc};
    for (const Json& spec : specs) {
      if (const Json* base = spec.Find("base")) {
        AddNamedPaths("", *base, &named);
      }
      const Json* axes = spec.Find("axes");
      if (axes == nullptr) continue;
      for (const Json& axis : axes->items()) {
        const Json* axis_path = axis.Find("path");
        const Json* values = axis.Find("values");
        ASSERT_NE(axis_path, nullptr) << path;
        ASSERT_NE(values, nullptr) << path;
        for (const Json& value : values->items()) {
          AddNamedPaths(axis_path->str(), value, &named);
        }
      }
    }
  }
  for (const std::string& path : JsonFiles(kBenchWorkloadDir)) {
    AddNamedPaths("", MustLoad(path), &named);
  }

  std::vector<std::pair<std::string, std::string>> leaves;
  ExperimentConfigSchema().ListPaths("", &leaves);
  std::set<std::string> unnamed;
  for (const auto& leaf : leaves) {
    if (named.count(leaf.first) == 0) unnamed.insert(leaf.first);
  }
  // A new field fails here until a config sets it; a kept field that a
  // config now names (or that is gone) leaves the list.
  for (const std::string& path : unnamed) {
    EXPECT_EQ(kKept.count(path), 1u)
        << path << " is named by no checked-in config";
  }
  for (const auto& [path, reason] : kKept) {
    EXPECT_EQ(unnamed.count(path), 1u)
        << path << " (kept: " << reason << ") is no unnamed flag";
  }
}

}  // namespace
}  // namespace lion
