// Checked-in grids stay runnable and complete: every config in
// examples/configs/ parses, expands and validates point by point, and the
// figures whose protocol lineup is "every registered protocol of one
// execution mode" list exactly that lineup, so a newly registered protocol
// fails here until the figure grids include it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
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

std::vector<std::string> ConfigFiles() {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(kConfigDir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

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

}  // namespace
}  // namespace lion
