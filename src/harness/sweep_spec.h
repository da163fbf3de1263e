// JSON sweep grids: a declarative axis-list specification that expands into
// the SweepPoint vectors SweepRunner consumes, so figure-style grids run
// from checked-in files instead of recompiled C++.
//
// File format — one spec object, or an array of them expanded in order:
//
//   {
//     "name": "Fig7a",
//     "base": { "workload": "ycsb", "duration_s": 2,
//               "ycsb": { "skew_factor": 0.8 } },
//     "axes": [
//       { "path": "protocol", "values": ["2PC", "Lion"] },
//       { "path": "ycsb.cross_ratio",
//         "values": [0, 0.2, 0.5],
//         "labels": ["cross=0", "cross=20", "cross=50"] }
//     ]
//   }
//
// "base" overlays the ExperimentConfig defaults through the config schema
// (harness/config_schema.h); each axis "path" is a dotted schema path. The
// expansion is the cartesian product in declared order with the FIRST axis
// outermost, and each point is named "<name>/<label1>/<label2>/...". When
// "labels" is omitted, a value's label is "<leaf>=<value>" ("cross_ratio=0.2");
// explicit labels give points the figures' names ("cross=20").
//
// An optional "reports" array selects derived blocks that the merged sweep
// JSON carries next to "runs" ("reference", "meta_summary",
// "recovery_panel"; see SweepReportNames in harness/sweep_cli.h). A report
// reads the points of every spec in the document that names it.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "harness/experiment_config.h"
#include "harness/sweep_runner.h"

namespace lion {

/// One swept dimension: a dotted config path plus the values it takes.
struct SweepAxis {
  std::string path;
  std::vector<Json> values;
  /// Point-name fragments, same length as `values`.
  std::vector<std::string> labels;
};

/// One declarative grid over a base config.
struct SweepSpec {
  std::string name;
  ExperimentConfig base;
  std::vector<SweepAxis> axes;
  /// Report names copied onto every expanded point.
  std::vector<std::string> reports;

  /// Parses one spec object ("name" required; "base"/"axes"/"reports"
  /// optional). Unknown spec keys, unknown config keys in "base",
  /// length-mismatched "labels", empty "values" and unknown report names
  /// are kInvalidArgument.
  static Status FromJson(const Json& v, SweepSpec* out);

  /// Product of the axis sizes (1 when there are no axes).
  size_t num_points() const;

  /// Appends the expanded grid to `*out`. Axis values resolve through the
  /// config schema, so a bad path or mistyped value reports its dotted
  /// location; configs are not otherwise validated here (SweepRunner
  /// surfaces per-point Build errors without aborting the sweep).
  Status Expand(std::vector<SweepPoint>* out) const;
};

/// Expands a whole sweep document (one spec object or an array of them).
Status ExpandSweepDocument(const Json& doc, std::vector<SweepPoint>* out);

/// Json::ParseFile + ExpandSweepDocument.
Status LoadSweepFile(const std::string& path, std::vector<SweepPoint>* out);

}  // namespace lion
