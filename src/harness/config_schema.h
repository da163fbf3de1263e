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
// Time fields carry their unit in the name suffix (_s/_ms/_us/_ns); the
// JSON value is a number in that unit and converts to SimTime nanoseconds
// on parse (nearest integer), so emitted values round-trip exactly.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/types.h"

namespace lion {

struct ExperimentConfig;
struct ClusterConfig;
struct NetworkConfig;
struct YcsbConfig;
struct TpccConfig;
struct LionOptions;
struct GeoPlacementConfig;
struct PlannerConfig;
struct PlanGeneratorConfig;
struct CostModelConfig;
struct PredictorConfig;
struct LstmConfig;
struct ClayConfig;
struct ChaosConfig;

/// Joins a dotted path prefix with a field name ("" + "ycsb" -> "ycsb",
/// "ycsb" + "cross_ratio" -> "ycsb.cross_ratio").
std::string JoinFieldPath(const std::string& prefix, const std::string& name);

/// One declared field, type-erased over the owning struct (instances are
/// addressed as void* so nested schemas compose). Built via
/// ConfigSchemaBuilder<T>; not constructed by hand.
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
  explicit ConfigSchema(std::string struct_name)
      : struct_name_(std::move(struct_name)) {}

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
  template <typename T>
  friend class ConfigSchemaBuilder;

  const ConfigFieldSpec* FindField(const std::string& name) const;
  Status SetJsonAtPath(void* obj, const std::string& dotted, const Json& v,
                       const std::string& prefix) const;

  std::string struct_name_;
  std::vector<ConfigFieldSpec> fields_;
};

/// Validation predicate over the parsed C++ value: empty string = valid,
/// anything else is the message fragment after "path: ".
template <typename V>
using FieldCheck = std::function<std::string(const V&)>;

namespace check {

std::string FormatNumber(double v);

template <typename V>
FieldCheck<V> InRange(V lo, V hi) {
  return [lo, hi](const V& v) -> std::string {
    if (v < lo || v > hi) {
      return FormatNumber(static_cast<double>(v)) + " not in [" +
             FormatNumber(static_cast<double>(lo)) + "," +
             FormatNumber(static_cast<double>(hi)) + "]";
    }
    return "";
  };
}

template <typename V>
FieldCheck<V> Positive() {
  return [](const V& v) -> std::string {
    if (!(v > V{})) {
      return FormatNumber(static_cast<double>(v)) + " must be positive";
    }
    return "";
  };
}

template <typename V>
FieldCheck<V> NonNegative() {
  return [](const V& v) -> std::string {
    if (v < V{}) {
      return FormatNumber(static_cast<double>(v)) + " must be >= 0";
    }
    return "";
  };
}

template <typename V>
FieldCheck<V> AtLeast(V lo) {
  return [lo](const V& v) -> std::string {
    if (v < lo) {
      return FormatNumber(static_cast<double>(v)) + " must be >= " +
             FormatNumber(static_cast<double>(lo));
    }
    return "";
  };
}

inline FieldCheck<double> UnitInterval() { return InRange<double>(0.0, 1.0); }

inline FieldCheck<std::string> NotEmpty() {
  return [](const std::string& v) -> std::string {
    return v.empty() ? "must not be empty" : "";
  };
}

}  // namespace check

/// Typed fluent declaration of one struct's schema; see config_schema.cc
/// for the full set of instantiations. Usage:
///
///   ConfigSchemaBuilder<YcsbConfig> b("YcsbConfig");
///   b.Field("cross_ratio", &YcsbConfig::cross_ratio,
///           "fraction of two-partition transactions",
///           check::UnitInterval());
///   ...
///   return std::move(b).Build();
template <typename T>
class ConfigSchemaBuilder {
 public:
  explicit ConfigSchemaBuilder(std::string struct_name)
      : schema_(std::move(struct_name)) {}

  ConfigSchemaBuilder& Field(const char* name, bool T::*m, const char* help) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m](void* obj, const Json& v, const std::string& path) {
      bool b;
      Status s = v.GetBool(&b);
      if (!s.ok()) return Status::InvalidArgument(path + ": " + s.message());
      static_cast<T*>(obj)->*m = b;
      return Status::OK();
    };
    spec.emit = [m](const void* obj) {
      return Json::Bool(static_cast<const T*>(obj)->*m);
    };
    Push(std::move(spec));
    return *this;
  }

  ConfigSchemaBuilder& Field(const char* name, int T::*m, const char* help,
                             FieldCheck<int> check = nullptr) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m](void* obj, const Json& v, const std::string& path) {
      int64_t i;
      Status s = v.GetInt64(&i);
      if (!s.ok()) return Status::InvalidArgument(path + ": " + s.message());
      if (i < INT32_MIN || i > INT32_MAX)
        return Status::InvalidArgument(path + ": " + std::to_string(i) +
                                       " out of int range");
      static_cast<T*>(obj)->*m = static_cast<int>(i);
      return Status::OK();
    };
    spec.emit = [m](const void* obj) {
      return Json::Int(static_cast<const T*>(obj)->*m);
    };
    AttachCheck(&spec, m, std::move(check));
    Push(std::move(spec));
    return *this;
  }

  ConfigSchemaBuilder& Field(const char* name, uint64_t T::*m,
                             const char* help,
                             FieldCheck<uint64_t> check = nullptr) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m](void* obj, const Json& v, const std::string& path) {
      uint64_t u;
      Status s = v.GetUint64(&u);
      if (!s.ok()) return Status::InvalidArgument(path + ": " + s.message());
      static_cast<T*>(obj)->*m = u;
      return Status::OK();
    };
    spec.emit = [m](const void* obj) {
      return Json::Uint(static_cast<const T*>(obj)->*m);
    };
    AttachCheck(&spec, m, std::move(check));
    Push(std::move(spec));
    return *this;
  }

  ConfigSchemaBuilder& Field(const char* name, double T::*m, const char* help,
                             FieldCheck<double> check = nullptr) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m](void* obj, const Json& v, const std::string& path) {
      double d;
      Status s = v.GetDouble(&d);
      if (!s.ok()) return Status::InvalidArgument(path + ": " + s.message());
      static_cast<T*>(obj)->*m = d;
      return Status::OK();
    };
    spec.emit = [m](const void* obj) {
      return Json::Double(static_cast<const T*>(obj)->*m);
    };
    AttachCheck(&spec, m, std::move(check));
    Push(std::move(spec));
    return *this;
  }

  ConfigSchemaBuilder& Field(const char* name, std::string T::*m,
                             const char* help,
                             FieldCheck<std::string> check = nullptr) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m](void* obj, const Json& v, const std::string& path) {
      if (!v.is_string())
        return Status::InvalidArgument(path + ": expected string, got " +
                                       JsonTypeName(v.type()));
      static_cast<T*>(obj)->*m = v.str();
      return Status::OK();
    };
    spec.emit = [m](const void* obj) {
      return Json::Str(static_cast<const T*>(obj)->*m);
    };
    AttachCheck(&spec, m, std::move(check));
    Push(std::move(spec));
    return *this;
  }

  /// Numeric array field (JSON array of ints). The whole vector is replaced
  /// on parse; `element_check` runs per element with an indexed path
  /// ("network.node_regions[2]: ...").
  ConfigSchemaBuilder& Field(const char* name, std::vector<int> T::*m,
                             const char* help,
                             FieldCheck<int> element_check = nullptr) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m](void* obj, const Json& v, const std::string& path) {
      if (!v.is_array())
        return Status::InvalidArgument(path + ": expected array, got " +
                                       JsonTypeName(v.type()));
      std::vector<int> vec;
      vec.reserve(v.items().size());
      for (size_t i = 0; i < v.items().size(); ++i) {
        int64_t e;
        Status s = v.items()[i].GetInt64(&e);
        std::string at = path + "[" + std::to_string(i) + "]";
        if (!s.ok()) return Status::InvalidArgument(at + ": " + s.message());
        if (e < INT32_MIN || e > INT32_MAX)
          return Status::InvalidArgument(at + ": " + std::to_string(e) +
                                         " out of int range");
        vec.push_back(static_cast<int>(e));
      }
      static_cast<T*>(obj)->*m = std::move(vec);
      return Status::OK();
    };
    spec.emit = [m](const void* obj) {
      Json arr = Json::Array();
      for (int e : static_cast<const T*>(obj)->*m) arr.Add(Json::Int(e));
      return arr;
    };
    AttachElementCheck(&spec, m, std::move(element_check));
    Push(std::move(spec));
    return *this;
  }

  /// Numeric array field (JSON array of doubles); see the int overload.
  ConfigSchemaBuilder& Field(const char* name, std::vector<double> T::*m,
                             const char* help,
                             FieldCheck<double> element_check = nullptr) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m](void* obj, const Json& v, const std::string& path) {
      if (!v.is_array())
        return Status::InvalidArgument(path + ": expected array, got " +
                                       JsonTypeName(v.type()));
      std::vector<double> vec;
      vec.reserve(v.items().size());
      for (size_t i = 0; i < v.items().size(); ++i) {
        double e;
        Status s = v.items()[i].GetDouble(&e);
        if (!s.ok())
          return Status::InvalidArgument(path + "[" + std::to_string(i) +
                                         "]: " + s.message());
        vec.push_back(e);
      }
      static_cast<T*>(obj)->*m = std::move(vec);
      return Status::OK();
    };
    spec.emit = [m](const void* obj) {
      Json arr = Json::Array();
      for (double e : static_cast<const T*>(obj)->*m)
        arr.Add(Json::Double(e));
      return arr;
    };
    AttachElementCheck(&spec, m, std::move(element_check));
    Push(std::move(spec));
    return *this;
  }

  /// String array field (JSON array of strings); the chaos schedule's
  /// event lines parse through this. See the int overload for semantics.
  ConfigSchemaBuilder& Field(const char* name, std::vector<std::string> T::*m,
                             const char* help,
                             FieldCheck<std::string> element_check = nullptr) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m](void* obj, const Json& v, const std::string& path) {
      if (!v.is_array())
        return Status::InvalidArgument(path + ": expected array, got " +
                                       JsonTypeName(v.type()));
      std::vector<std::string> vec;
      vec.reserve(v.items().size());
      for (size_t i = 0; i < v.items().size(); ++i) {
        const Json& e = v.items()[i];
        if (!e.is_string())
          return Status::InvalidArgument(path + "[" + std::to_string(i) +
                                         "]: expected string, got " +
                                         JsonTypeName(e.type()));
        vec.push_back(e.str());
      }
      static_cast<T*>(obj)->*m = std::move(vec);
      return Status::OK();
    };
    spec.emit = [m](const void* obj) {
      Json arr = Json::Array();
      for (const std::string& e : static_cast<const T*>(obj)->*m)
        arr.Add(Json::Str(e));
      return arr;
    };
    AttachElementCheck(&spec, m, std::move(element_check));
    Push(std::move(spec));
    return *this;
  }

  /// SimTime field: the JSON value is a number in `unit` (kSecond,
  /// kMillisecond, ...; the name should carry the matching _s/_ms/_us/_ns
  /// suffix) converted to nanoseconds at the nearest integer.
  ConfigSchemaBuilder& Time(const char* name, SimTime T::*m, SimTime unit,
                            const char* help,
                            FieldCheck<SimTime> check = nullptr) {
    ConfigFieldSpec spec = Base(name, help);
    spec.parse = [m, unit](void* obj, const Json& v, const std::string& path) {
      double d;
      Status s = v.GetDouble(&d);
      if (!s.ok()) return Status::InvalidArgument(path + ": " + s.message());
      static_cast<T*>(obj)->*m =
          static_cast<SimTime>(std::llround(d * static_cast<double>(unit)));
      return Status::OK();
    };
    spec.emit = [m, unit](const void* obj) {
      return Json::Double(static_cast<double>(static_cast<const T*>(obj)->*m) /
                          static_cast<double>(unit));
    };
    AttachCheck(&spec, m, std::move(check));
    Push(std::move(spec));
    return *this;
  }

  /// Enum field serialized as one of the declared names.
  template <typename E>
  ConfigSchemaBuilder& Enum(const char* name, E T::*m,
                            std::vector<std::pair<std::string, E>> values,
                            const char* help) {
    ConfigFieldSpec spec = Base(name, help);
    auto joined = std::make_shared<std::string>();
    for (const auto& nv : values) {
      if (!joined->empty()) *joined += ", ";
      *joined += nv.first;
    }
    auto table = std::make_shared<std::vector<std::pair<std::string, E>>>(
        std::move(values));
    spec.parse = [m, table, joined](void* obj, const Json& v,
                                    const std::string& path) {
      if (!v.is_string())
        return Status::InvalidArgument(path + ": expected string, got " +
                                       JsonTypeName(v.type()));
      for (const auto& nv : *table) {
        if (nv.first == v.str()) {
          static_cast<T*>(obj)->*m = nv.second;
          return Status::OK();
        }
      }
      return Status::InvalidArgument(path + ": unknown value \"" + v.str() +
                                     "\" (one of: " + *joined + ")");
    };
    spec.emit = [m, table](const void* obj) {
      E e = static_cast<const T*>(obj)->*m;
      for (const auto& nv : *table) {
        if (nv.second == e) return Json::Str(nv.first);
      }
      return Json::Str("<unregistered enum value>");
    };
    Push(std::move(spec));
    return *this;
  }

  /// Nested struct field: parse/emit/validate recurse into `schema`, and
  /// dotted paths descend through it. `schema` must outlive this schema —
  /// the function-local statics below always do.
  template <typename U>
  ConfigSchemaBuilder& Nested(const char* name, U T::*m,
                              const ConfigSchema& schema, const char* help) {
    ConfigFieldSpec spec = Base(name, help);
    spec.nested = &schema;
    spec.member = [m](void* obj) -> void* {
      return &(static_cast<T*>(obj)->*m);
    };
    spec.cmember = [m](const void* obj) -> const void* {
      return &(static_cast<const T*>(obj)->*m);
    };
    Push(std::move(spec));
    return *this;
  }

  ConfigSchema Build() && { return std::move(schema_); }

 private:
  ConfigFieldSpec Base(const char* name, const char* help) {
    ConfigFieldSpec spec;
    spec.name = name;
    spec.help = help;
    return spec;
  }

  template <typename V>
  void AttachElementCheck(ConfigFieldSpec* spec, std::vector<V> T::*m,
                          FieldCheck<V> check) {
    if (!check) return;
    spec->check = [m, check](const void* obj, const std::string& path) {
      const std::vector<V>& vec = static_cast<const T*>(obj)->*m;
      for (size_t i = 0; i < vec.size(); ++i) {
        std::string err = check(vec[i]);
        if (!err.empty()) {
          return Status::InvalidArgument(path + "[" + std::to_string(i) +
                                         "]: " + err);
        }
      }
      return Status::OK();
    };
  }

  template <typename V>
  void AttachCheck(ConfigFieldSpec* spec, V T::*m, FieldCheck<V> check) {
    if (!check) return;
    spec->check = [m, check](const void* obj, const std::string& path) {
      std::string err = check(static_cast<const T*>(obj)->*m);
      if (!err.empty()) return Status::InvalidArgument(path + ": " + err);
      return Status::OK();
    };
  }

  void Push(ConfigFieldSpec spec) {
    schema_.fields_.push_back(std::move(spec));
  }

  ConfigSchema schema_;
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
const ConfigSchema& GeoPlacementConfigSchema();
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
