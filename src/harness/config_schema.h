// Field-descriptor schema for the experiment configuration structs.
//
// Every config struct (ExperimentConfig and each nested struct) declares its
// fields exactly once in config_schema.cc — name, member reference, unit
// (for SimTime fields), help text, and an optional validation predicate —
// and everything else is derived from that single declaration:
//
//   * ParseJson / EmitJson — lossless JSON round trip (parse of an emitted
//     config reproduces the struct exactly; missing keys keep defaults,
//     unknown keys are errors);
//   * Validate — Status-returning validation with dotted field-path error
//     messages ("ycsb.cross_ratio: 1.3 not in [0,1]");
//   * SetByPath — "--lion.planner.interval_ms=5"-style CLI overrides;
//   * ListPaths — the full flag surface for --flags listings;
//   * SweepSpec (harness/sweep_spec.h) — JSON axis grids resolve their
//     dotted paths through the same descriptors.
//
// Every field type reads and writes its JSON value through one codec, so
// all fields of a type fail with the same message; an array field reads
// element by element and names the failing index ("path[1]: ...").
// Time fields carry their unit in the name suffix (_s/_ms/_us/_ns); the
// JSON value is a number in that unit and converts to SimTime nanoseconds
// on parse (nearest integer), so emitted values round-trip exactly.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace lion {

struct ExperimentConfig;

/// Joins a dotted path prefix with a field name ("" + "ycsb" -> "ycsb",
/// "ycsb" + "cross_ratio" -> "ycsb.cross_ratio").
std::string JoinFieldPath(const std::string& prefix, const std::string& name);

/// One declared field, type-erased over the owning struct (instances are
/// addressed as void* so nested schemas compose). Built by the declarations
/// in config_schema.cc; not constructed by hand.
struct ConfigFieldSpec {
  std::string name;
  std::string help;
  /// Non-null for nested struct fields; scalar closures are null then.
  const class ConfigSchema* nested = nullptr;
  std::function<void*(void*)> member;              // nested member address
  std::function<const void*(const void*)> cmember;
  std::function<Status(void*, const Json&, const std::string& path)> parse;
  std::function<Json(const void*)> emit;
  std::function<Status(const void*, const std::string& path)> check;
};

/// The declared schema of one config struct. Instances live as
/// function-local statics (see the *Schema() accessors below) and are
/// referenced by nested fields and callers alike.
class ConfigSchema {
 public:
  ConfigSchema(std::string struct_name, std::vector<ConfigFieldSpec> fields)
      : struct_name_(std::move(struct_name)), fields_(std::move(fields)) {}

  const std::string& struct_name() const { return struct_name_; }
  const std::vector<ConfigFieldSpec>& fields() const { return fields_; }

  /// Overlays `v` (a JSON object) onto `*obj`: present keys are parsed into
  /// their fields (recursively for nested structs), absent keys keep the
  /// current (default) values, unknown keys and type mismatches are
  /// kInvalidArgument with the offending dotted path.
  Status ParseJson(const Json& v, void* obj) const {
    return ParseAt(v, obj, "");
  }

  /// Emits every declared field (nested structs recursively) in declaration
  /// order. ParseJson(EmitJson(obj)) reproduces `obj` exactly.
  Json EmitJson(const void* obj) const;

  /// Runs every field's validation predicate; the first failure is returned
  /// as kInvalidArgument with a "path: message" payload.
  Status Validate(const void* obj) const { return ValidateAt(obj, ""); }

  /// Resolves `dotted` ("lion.planner.interval_ms") and parses `value` into
  /// the addressed scalar. The value is interpreted as JSON when it parses
  /// as a scalar ("5", "0.3", "true"), and as a bare string otherwise
  /// ("Lion", "random-node").
  Status SetByPath(void* obj, const std::string& dotted,
                   const std::string& value) const;

  /// Same resolution, but the value is already a JSON scalar (sweep axes).
  Status SetJsonByPath(void* obj, const std::string& dotted,
                       const Json& v) const;

  /// Appends every scalar leaf as (dotted path, help), depth-first in
  /// declaration order — the full derived flag surface.
  void ListPaths(const std::string& prefix,
                 std::vector<std::pair<std::string, std::string>>* out) const;

  // Recursion entry points (public so nested fields and SweepSpec can carry
  // an explicit path prefix).
  Status ParseAt(const Json& v, void* obj, const std::string& path) const;
  Status ValidateAt(const void* obj, const std::string& path) const;

 private:
  const ConfigFieldSpec* FindField(const std::string& name) const;
  Status SetJsonAtPath(void* obj, const std::string& dotted, const Json& v,
                       const std::string& prefix) const;

  std::string struct_name_;
  std::vector<ConfigFieldSpec> fields_;
};

// --- declared schemas (one per config struct, fields declared once) ---------
const ConfigSchema& NetworkConfigSchema();
const ConfigSchema& ClusterConfigSchema();
const ConfigSchema& YcsbConfigSchema();
const ConfigSchema& TpccConfigSchema();
const ConfigSchema& LstmConfigSchema();
const ConfigSchema& PredictorConfigSchema();
const ConfigSchema& CostModelConfigSchema();
const ConfigSchema& PlanGeneratorConfigSchema();
const ConfigSchema& PlannerConfigSchema();
const ConfigSchema& LionOptionsSchema();
const ConfigSchema& ClayConfigSchema();
const ConfigSchema& ChaosConfigSchema();
const ConfigSchema& RecoveryConfigSchema();
const ConfigSchema& ExperimentConfigSchema();

// --- derived flag surface ----------------------------------------------------

/// One top-level section of the flag surface: the root group ("" — the
/// schema's own scalar fields) or one nested struct field, with every scalar
/// leaf under it flattened to (dotted path, help).
struct ConfigFlagGroup {
  std::string name;  // "" for the root group, else the nested field's name
  std::string help;  // the nested field's declared help ("" for the root)
  std::vector<std::pair<std::string, std::string>> flags;
};

/// Splits ListPaths output into per-struct groups, declaration order
/// preserved: root scalars first, then one group per nested field.
std::vector<ConfigFlagGroup> ListFlagGroups(const ConfigSchema& schema);

/// Renders the full flag surface as a markdown document (one section and
/// table per group) for docs and `--flags=md`.
std::string FlagsMarkdown(const ConfigSchema& schema, const std::string& title);

// --- typed conveniences over ExperimentConfigSchema() -----------------------
Status ParseExperimentConfig(const Json& v, ExperimentConfig* out);
Json EmitExperimentConfig(const ExperimentConfig& cfg);
/// Schema validation only; registry existence of protocol/workload names is
/// ExperimentBuilder::Validate's concern.
Status ValidateExperimentConfig(const ExperimentConfig& cfg);
Status SetExperimentFlag(ExperimentConfig* cfg, const std::string& dotted,
                         const std::string& value);

}  // namespace lion
