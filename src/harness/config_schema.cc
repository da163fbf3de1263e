#include "harness/config_schema.h"

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "harness/experiment_config.h"
#include "replication/chaos_config.h"

namespace lion {

std::string JoinFieldPath(const std::string& prefix, const std::string& name) {
  return prefix.empty() ? name : prefix + "." + name;
}

// --- ConfigSchema core ------------------------------------------------------

const ConfigFieldSpec* ConfigSchema::FindField(const std::string& name) const {
  for (const ConfigFieldSpec& f : fields_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Status ConfigSchema::ParseAt(const Json& v, void* obj,
                             const std::string& path) const {
  if (!v.is_object()) {
    std::string where = path.empty() ? struct_name_ : path;
    return Status::InvalidArgument(where + ": expected object, got " +
                                   JsonTypeName(v.type()));
  }
  for (const Json::Member& m : v.members()) {
    const ConfigFieldSpec* field = FindField(m.first);
    std::string field_path = JoinFieldPath(path, m.first);
    if (field == nullptr) {
      return Status::InvalidArgument(field_path + ": unknown field in " +
                                     struct_name_);
    }
    if (field->nested != nullptr) {
      Status s = field->nested->ParseAt(m.second, field->member(obj),
                                        field_path);
      if (!s.ok()) return s;
    } else {
      Status s = field->parse(obj, m.second, field_path);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Json ConfigSchema::EmitJson(const void* obj) const {
  Json out = Json::Object();
  for (const ConfigFieldSpec& f : fields_) {
    if (f.nested != nullptr) {
      out.Set(f.name, f.nested->EmitJson(f.cmember(obj)));
    } else {
      out.Set(f.name, f.emit(obj));
    }
  }
  return out;
}

Status ConfigSchema::ValidateAt(const void* obj,
                                const std::string& path) const {
  for (const ConfigFieldSpec& f : fields_) {
    std::string field_path = JoinFieldPath(path, f.name);
    if (f.nested != nullptr) {
      Status s = f.nested->ValidateAt(f.cmember(obj), field_path);
      if (!s.ok()) return s;
    } else if (f.check) {
      Status s = f.check(obj, field_path);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status ConfigSchema::SetJsonAtPath(void* obj, const std::string& dotted,
                                   const Json& v,
                                   const std::string& prefix) const {
  size_t dot = dotted.find('.');
  std::string head = dotted.substr(0, dot);
  std::string head_path = JoinFieldPath(prefix, head);
  const ConfigFieldSpec* field = FindField(head);
  if (field == nullptr) {
    return Status::InvalidArgument(head_path + ": unknown field in " +
                                   struct_name_);
  }
  if (dot == std::string::npos) {
    if (field->nested != nullptr) {
      // A whole nested struct may be assigned from a JSON object value.
      return field->nested->ParseAt(v, field->member(obj), head_path);
    }
    return field->parse(obj, v, head_path);
  }
  if (field->nested == nullptr) {
    return Status::InvalidArgument(head_path +
                                   " is a scalar, not a struct (in " +
                                   struct_name_ + ")");
  }
  return field->nested->SetJsonAtPath(field->member(obj),
                                      dotted.substr(dot + 1), v, head_path);
}

Status ConfigSchema::SetJsonByPath(void* obj, const std::string& dotted,
                                   const Json& v) const {
  return SetJsonAtPath(obj, dotted, v, "");
}

Status ConfigSchema::SetByPath(void* obj, const std::string& dotted,
                               const std::string& value) const {
  // A value that parses as a JSON scalar or array is used as such ("5",
  // "0.25", "true", "[0,1,1]"); everything else — protocol names, enum
  // values — is a string.
  Json parsed;
  bool is_json_value =
      Json::Parse(value, &parsed).ok() &&
      (parsed.is_number() || parsed.is_bool() || parsed.is_null() ||
       parsed.is_string() || parsed.is_array());
  if (!is_json_value) parsed = Json::Str(value);
  Status s = SetJsonByPath(obj, dotted, parsed);
  if (!s.ok() && parsed.is_number()) {
    // "--workload=2pc"-style values lex as garbage numbers for string
    // fields; retry verbatim before reporting the original error.
    Status retry = SetJsonByPath(obj, dotted, Json::Str(value));
    if (retry.ok()) return retry;
  }
  return s;
}

void ConfigSchema::ListPaths(
    const std::string& prefix,
    std::vector<std::pair<std::string, std::string>>* out) const {
  for (const ConfigFieldSpec& f : fields_) {
    std::string path = JoinFieldPath(prefix, f.name);
    if (f.nested != nullptr) {
      f.nested->ListPaths(path, out);
    } else {
      out->emplace_back(std::move(path), f.help);
    }
  }
}

// --- the declaration builder and its value codec ----------------------------

namespace {

/// Validation predicate over the parsed C++ value: empty string = valid,
/// anything else is the message fragment after "path: ".
template <typename V>
using FieldCheck = std::function<std::string(const V&)>;

namespace check {

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

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

FieldCheck<double> UnitInterval() { return InRange<double>(0.0, 1.0); }

FieldCheck<std::string> NotEmpty() {
  return [](const std::string& v) -> std::string {
    return v.empty() ? "must not be empty" : "";
  };
}

}  // namespace check

Status Invalid(const std::string& path, const std::string& message) {
  return Status::InvalidArgument(path + ": " + message);
}

std::string IndexPath(const std::string& path, size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

// The codec: one read and one write per value type. A read names `path`
// in its error, so an array reads each element at its indexed path.

Status ReadValue(const Json& v, const std::string& path, bool* out) {
  Status s = v.GetBool(out);
  return s.ok() ? s : Invalid(path, s.message());
}

Status ReadValue(const Json& v, const std::string& path, uint64_t* out) {
  Status s = v.GetUint64(out);
  return s.ok() ? s : Invalid(path, s.message());
}

Status ReadValue(const Json& v, const std::string& path, double* out) {
  Status s = v.GetDouble(out);
  return s.ok() ? s : Invalid(path, s.message());
}

Status ReadValue(const Json& v, const std::string& path, int* out) {
  int64_t i = 0;
  Status s = v.GetInt64(&i);
  if (!s.ok()) return Invalid(path, s.message());
  if (i < INT32_MIN || i > INT32_MAX) {
    return Invalid(path, std::to_string(i) + " out of int range");
  }
  *out = static_cast<int>(i);
  return Status::OK();
}

Status ReadValue(const Json& v, const std::string& path, std::string* out) {
  if (!v.is_string()) {
    return Invalid(path, std::string("expected string, got ") +
                             JsonTypeName(v.type()));
  }
  *out = v.str();
  return Status::OK();
}

template <typename E>
Status ReadValue(const Json& v, const std::string& path, std::vector<E>* out) {
  if (!v.is_array()) {
    return Invalid(path, std::string("expected array, got ") +
                             JsonTypeName(v.type()));
  }
  out->reserve(v.items().size());
  for (size_t i = 0; i < v.items().size(); ++i) {
    E e{};
    Status s = ReadValue(v.items()[i], IndexPath(path, i), &e);
    if (!s.ok()) return s;
    out->push_back(std::move(e));
  }
  return Status::OK();
}

Json WriteValue(bool v) { return Json::Bool(v); }
Json WriteValue(int v) { return Json::Int(v); }
Json WriteValue(uint64_t v) { return Json::Uint(v); }
Json WriteValue(double v) { return Json::Double(v); }
Json WriteValue(const std::string& v) { return Json::Str(v); }

template <typename E>
Json WriteValue(const std::vector<E>& values) {
  Json arr = Json::Array();
  for (const E& e : values) arr.Add(WriteValue(e));
  return arr;
}

/// A field's check sees the value, or each element of an array.
template <typename V>
struct Checked {
  using type = V;
};
template <typename E>
struct Checked<std::vector<E>> {
  using type = E;
};
template <typename V>
using CheckOf = FieldCheck<typename Checked<V>::type>;

template <typename V>
Status CheckValue(const V& v, const std::string& path,
                  const FieldCheck<V>& check) {
  std::string err = check(v);
  return err.empty() ? Status::OK() : Invalid(path, err);
}

template <typename E>
Status CheckValue(const std::vector<E>& values, const std::string& path,
                  const FieldCheck<E>& check) {
  for (size_t i = 0; i < values.size(); ++i) {
    Status s = CheckValue(values[i], IndexPath(path, i), check);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// Typed fluent declaration of one struct's schema. Usage:
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
      : struct_name_(std::move(struct_name)) {}

  /// A bool, int, uint64_t, double or string field, or an array of ints,
  /// doubles or strings. An array is replaced whole on parse, and `check`
  /// runs on each of its elements.
  template <typename V>
  ConfigSchemaBuilder& Field(const char* name, V T::*m, const char* help,
                             CheckOf<V> check = nullptr) {
    return Add(
        name, m, help,
        [](const Json& v, const std::string& path, V* out) {
          return ReadValue(v, path, out);
        },
        [](const V& v) { return WriteValue(v); }, std::move(check));
  }

  /// SimTime field: the JSON value is a number in `unit` (kSecond,
  /// kMillisecond, ...; the name should carry the matching _s/_ms/_us/_ns
  /// suffix) converted to nanoseconds at the nearest integer. `check` sees
  /// the value back in `unit`, as the flag is written and printed.
  ConfigSchemaBuilder& Time(const char* name, SimTime T::*m, SimTime unit,
                            const char* help,
                            FieldCheck<double> check = nullptr) {
    const double scale = static_cast<double>(unit);
    FieldCheck<SimTime> in_unit;
    if (check) {
      in_unit = [scale, check = std::move(check)](const SimTime& t) {
        return check(static_cast<double>(t) / scale);
      };
    }
    return Add(
        name, m, help,
        [scale](const Json& v, const std::string& path, SimTime* out) {
          double d = 0.0;
          Status s = ReadValue(v, path, &d);
          if (s.ok()) *out = static_cast<SimTime>(std::llround(d * scale));
          return s;
        },
        [scale](const SimTime& t) {
          return WriteValue(static_cast<double>(t) / scale);
        },
        std::move(in_unit));
  }

  /// Enum field serialized as one of the declared names.
  template <typename E>
  ConfigSchemaBuilder& Enum(const char* name, E T::*m,
                            std::vector<std::pair<std::string, E>> values,
                            const char* help) {
    std::string names;
    for (const auto& nv : values) {
      if (!names.empty()) names += ", ";
      names += nv.first;
    }
    return Add(
        name, m, help,
        [values, names](const Json& v, const std::string& path, E* out) {
          std::string s;
          Status read = ReadValue(v, path, &s);
          if (!read.ok()) return read;
          for (const auto& nv : values) {
            if (nv.first == s) {
              *out = nv.second;
              return Status::OK();
            }
          }
          return Invalid(path, "unknown value \"" + s + "\" (one of: " +
                                   names + ")");
        },
        [values](const E& e) {
          for (const auto& nv : values) {
            if (nv.second == e) return Json::Str(nv.first);
          }
          return Json::Str("<unregistered enum value>");
        },
        nullptr);
  }

  /// Nested struct field: parse/emit/validate recurse into `schema`, and
  /// dotted paths descend through it. `schema` must outlive this schema —
  /// the function-local statics below always do.
  template <typename U>
  ConfigSchemaBuilder& Nested(const char* name, U T::*m,
                              const ConfigSchema& schema, const char* help) {
    ConfigFieldSpec spec;
    spec.name = name;
    spec.help = help;
    spec.nested = &schema;
    spec.member = [m](void* obj) -> void* {
      return &(static_cast<T*>(obj)->*m);
    };
    spec.cmember = [m](const void* obj) -> const void* {
      return &(static_cast<const T*>(obj)->*m);
    };
    fields_.push_back(std::move(spec));
    return *this;
  }

  ConfigSchema Build() && {
    return ConfigSchema(std::move(struct_name_), std::move(fields_));
  }

 private:
  /// One value field from its read/write pair: a parse that assigns only a
  /// value read whole, an emit, and the check when there is one.
  template <typename V, typename Read, typename Write>
  ConfigSchemaBuilder& Add(const char* name, V T::*m, const char* help,
                           Read read, Write write, CheckOf<V> check) {
    ConfigFieldSpec spec;
    spec.name = name;
    spec.help = help;
    spec.parse = [m, read](void* obj, const Json& v, const std::string& path) {
      V value{};
      Status s = read(v, path, &value);
      if (s.ok()) static_cast<T*>(obj)->*m = std::move(value);
      return s;
    };
    spec.emit = [m, write](const void* obj) {
      return write(static_cast<const T*>(obj)->*m);
    };
    if (check) {
      spec.check = [m, check](const void* obj, const std::string& path) {
        return CheckValue(static_cast<const T*>(obj)->*m, path, check);
      };
    }
    fields_.push_back(std::move(spec));
    return *this;
  }

  std::string struct_name_;
  std::vector<ConfigFieldSpec> fields_;
};

}  // namespace

// --- schema declarations (the single source of truth per struct) ------------

const ConfigSchema& NetworkConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<NetworkConfig> b("NetworkConfig");
    b.Field("regions", &NetworkConfig::regions,
            "geographic regions (1 = flat single-datacenter model)",
            check::AtLeast<int>(1));
    b.Field("node_regions", &NetworkConfig::node_regions,
            "region of each node; empty assigns contiguous equal blocks",
            check::NonNegative<int>());
    b.Field("region_latency_ms", &NetworkConfig::region_latency_ms,
            "row-major regions^2 one-way latency matrix in ms; empty uses "
            "25 us within a region and 30 ms between regions",
            check::NonNegative<double>());
    b.Field("jitter_pct", &NetworkConfig::jitter_pct,
            "symmetric multiplicative delivery jitter drawn from a dedicated "
            "seeded stream (0 disables)",
            check::UnitInterval());
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& ClusterConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<ClusterConfig> b("ClusterConfig");
    b.Field("num_nodes", &ClusterConfig::num_nodes, "executor nodes",
            check::AtLeast<int>(1));
    b.Field("workers_per_node", &ClusterConfig::workers_per_node,
            "worker threads per node", check::AtLeast<int>(1));
    b.Field("partitions_per_node", &ClusterConfig::partitions_per_node,
            "initial partitions per node", check::AtLeast<int>(1));
    b.Field("records_per_partition", &ClusterConfig::records_per_partition,
            "bulk-loaded records per partition");
    b.Field("record_bytes", &ClusterConfig::record_bytes,
            "logical record size for byte accounting",
            check::AtLeast<uint64_t>(1));
    b.Field("init_replicas", &ClusterConfig::init_replicas,
            "initial replicas per partition", check::AtLeast<int>(1));
    b.Field("max_replicas", &ClusterConfig::max_replicas,
            "replica cap per partition before eviction",
            check::AtLeast<int>(1));
    // Zero-period timers self-reschedule at the same timestamp forever, so
    // every periodic interval below must be strictly positive or a run
    // would hang instead of returning.
    b.Time("epoch_interval_ms", &ClusterConfig::epoch_interval, kMillisecond,
           "epoch-based group commit interval", check::Positive<double>());
    b.Field("materialize_secondaries", &ClusterConfig::materialize_secondaries,
            "physically apply shipped log entries to per-replica copies");
    b.Time("remaster_base_delay_us", &ClusterConfig::remaster_base_delay,
           kMicrosecond, "base remastering duration (paper: 3000 us)",
           check::NonNegative<double>());
    b.Nested("net", &ClusterConfig::net, NetworkConfigSchema(),
             "network regions, region latencies and jitter");
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& YcsbConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<YcsbConfig> b("YcsbConfig");
    b.Field("ops_per_txn", &YcsbConfig::ops_per_txn,
            "operations per transaction", check::AtLeast<int>(1));
    b.Enum("cross_pattern", &YcsbConfig::cross_pattern,
           {{"paired", CrossPattern::kPaired},
            {"random-node", CrossPattern::kRandomNode}},
           "how cross-partition transactions choose their second partition");
    b.Field("cross_ratio", &YcsbConfig::cross_ratio,
            "fraction of transactions spanning two nodes",
            check::UnitInterval());
    b.Field("skew_factor", &YcsbConfig::skew_factor,
            "fraction of transactions homed on the hot node",
            check::UnitInterval());
    b.Field("partition_offset", &YcsbConfig::partition_offset,
            "rotation of the partition space (dynamic scenarios)",
            check::NonNegative<int>());
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& TpccConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<TpccConfig> b("TpccConfig");
    b.Field("items", &TpccConfig::items, "item count (scaled from 100000)",
            check::AtLeast<int>(1));
    b.Field("remote_ratio", &TpccConfig::remote_ratio,
            "fraction of NewOrders buying from a remote warehouse",
            check::UnitInterval());
    b.Field("payment_ratio", &TpccConfig::payment_ratio,
            "fraction of Payment transactions in the mix",
            check::UnitInterval());
    b.Field("skew_factor", &TpccConfig::skew_factor,
            "fraction of transactions targeting the hot node",
            check::UnitInterval());
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& LstmConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<LstmConfig> b("LstmConfig");
    b.Field("hidden", &LstmConfig::hidden, "hidden units per layer",
            check::AtLeast<int>(1));
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& PredictorConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<PredictorConfig> b("PredictorConfig");
    b.Field("kind", &PredictorConfig::kind,
            "predictor implementation (PredictorRegistry name, e.g. lstm or "
            "ewma; \"off\" disables prediction)",
            check::NotEmpty());
    b.Time("sample_interval_ms", &PredictorConfig::sample_interval,
           kMillisecond, "arrival-rate sampling interval (Eq. 5)",
           check::Positive<double>());
    b.Field("history_window", &PredictorConfig::history_window,
            "LSTM input length in sampling intervals",
            check::AtLeast<int>(1));
    b.Field("horizon", &PredictorConfig::horizon,
            "forecast horizon h in sampling intervals (Eq. 6)",
            check::AtLeast<int>(1));
    b.Field("gamma", &PredictorConfig::gamma,
            "workload-variation threshold triggering pre-replication",
            check::NonNegative<double>());
    b.Field("prediction_scale", &PredictorConfig::prediction_scale,
            "scale from forecast arrival rate to graph weight",
            check::NonNegative<double>());
    b.Field("train_epochs", &PredictorConfig::train_epochs,
            "training epochs per planning round",
            check::NonNegative<int>());
    b.Field("seasonal_period", &PredictorConfig::seasonal_period,
            "season length m (sampling intervals) of the seasonal-naive "
            "predictor", check::AtLeast<int>(1));
    b.Nested("lstm", &PredictorConfig::lstm, LstmConfigSchema(),
             "per-class LSTM width");
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& CostModelConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<CostModelConfig> b("CostModelConfig");
    b.Field("wm", &CostModelConfig::wm,
            "cost weight of migrating a missing replica",
            check::NonNegative<double>());
    b.Field("remote_access", &CostModelConfig::remote_access,
            "routing-side weight of accessing a replica-less partition",
            check::NonNegative<double>());
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& PlanGeneratorConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<PlanGeneratorConfig> b("PlanGeneratorConfig");
    b.Nested("cost", &PlanGeneratorConfig::cost, CostModelConfigSchema(),
             "Eq. 3/4 placement cost weights");
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& PlannerConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<PlannerConfig> b("PlannerConfig");
    b.Time("interval_ms", &PlannerConfig::interval, kMillisecond,
           "how often the planner analyzes and re-plans",
           check::Positive<double>());
    b.Field("min_history", &PlannerConfig::min_history,
            "minimum history before a planning round does anything");
    b.Nested("plan", &PlannerConfig::plan, PlanGeneratorConfigSchema(),
             "Algorithm 1 rearrangement parameters");
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& LionOptionsSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<LionOptions> b("LionOptions");
    b.Nested("planner", &LionOptions::planner, PlannerConfigSchema(),
             "planning loop configuration");
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& ClayConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<ClayConfig> b("ClayConfig");
    b.Time("monitor_interval_ms", &ClayConfig::monitor_interval, kMillisecond,
           "how often Clay checks node load", check::Positive<double>());
    b.Field("clump_budget", &ClayConfig::clump_budget,
            "partitions moved per repartitioning round",
            check::AtLeast<int>(1));
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& ChaosConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<ChaosConfig> b("ChaosConfig");
    b.Field("schedule", &ChaosConfig::schedule,
            "scripted fault events, one per line: \"<time> <kind> [args]\" "
            "with time unit-suffixed (ns/us/ms/s) and kind one of crash N, "
            "crash_dirty N (discards the unsynced recovery-log suffix), "
            "recover N, truncate N (forces a recovery-log snapshot), "
            "partition N1,N2,..., heal, lag_storm DURATION, "
            "migrate PID NODE; empty disables chaos entirely",
            [](const std::string& line) -> std::string {
              ChaosEvent ev;
              Status s = ChaosEvent::Parse(line, &ev);
              return s.ok() ? "" : s.message();
            });
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& RecoveryConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<RecoveryConfig> b("RecoveryConfig");
    b.Field("enabled", &RecoveryConfig::enabled,
            "attach the per-node durable replication log; crashed nodes then "
            "recover by replaying their durable prefix and catching up from "
            "live primaries instead of rejoining empty");
    b.Time("durability_lag_us", &RecoveryConfig::durability_lag, kMicrosecond,
           "fsync horizon: a dirty crash (crash_dirty schedule events) loses "
           "log entries younger than this; 0 means every entry is durable "
           "the instant it commits", check::NonNegative<double>());
    b.Time("snapshot_interval_ms", &RecoveryConfig::snapshot_interval,
           kMillisecond,
           "period of the snapshot+truncate pass bounding replay work and "
           "log memory; 0 disables periodic snapshots",
           check::NonNegative<double>());
    b.Field("catch_up_batch", &RecoveryConfig::catch_up_batch,
            "log entries per catch-up shipment from a live primary to a "
            "recovering replica", check::AtLeast<int>(1));
    return std::move(b).Build();
  }();
  return schema;
}

const ConfigSchema& ExperimentConfigSchema() {
  static const ConfigSchema schema = [] {
    ConfigSchemaBuilder<ExperimentConfig> b("ExperimentConfig");
    b.Field("protocol", &ExperimentConfig::protocol,
            "protocol name resolved through ProtocolRegistry",
            check::NotEmpty());
    b.Field("workload", &ExperimentConfig::workload,
            "workload name resolved through WorkloadRegistry",
            check::NotEmpty());
    b.Nested("cluster", &ExperimentConfig::cluster, ClusterConfigSchema(),
             "simulated cluster topology and cost model");
    b.Nested("ycsb", &ExperimentConfig::ycsb, YcsbConfigSchema(),
             "YCSB workload parameters");
    b.Nested("tpcc", &ExperimentConfig::tpcc, TpccConfigSchema(),
             "TPC-C workload parameters");
    b.Time("dynamic_period_s", &ExperimentConfig::dynamic_period, kSecond,
           "period length of the dynamic scenarios",
           check::Positive<double>());
    b.Field("concurrency", &ExperimentConfig::concurrency,
            "closed-loop concurrency (0 = derive from execution mode)",
            check::NonNegative<int>());
    b.Time("warmup_s", &ExperimentConfig::warmup, kSecond,
           "warmup seconds before measurement",
           check::NonNegative<double>());
    b.Time("duration_s", &ExperimentConfig::duration, kSecond,
           "measured seconds", check::Positive<double>());
    b.Field("seed", &ExperimentConfig::seed, "RNG seed");
    b.Nested("lion", &ExperimentConfig::lion, LionOptionsSchema(),
             "Lion protocol options");
    b.Nested("predictor", &ExperimentConfig::predictor,
             PredictorConfigSchema(),
             "workload predictor (kind selects the implementation)");
    b.Nested("clay", &ExperimentConfig::clay, ClayConfigSchema(),
             "Clay baseline options");
    b.Nested("chaos", &ExperimentConfig::chaos, ChaosConfigSchema(),
             "scripted fault schedule, graceful degradation and post-run "
             "integrity checking (inactive while the schedule is empty)");
    b.Nested("recovery", &ExperimentConfig::recovery, RecoveryConfigSchema(),
             "durable log-backed recovery: crash replay + catch-up rejoin "
             "(inactive while enabled is false)");
    return std::move(b).Build();
  }();
  return schema;
}

// --- derived flag surface ----------------------------------------------------

std::vector<ConfigFlagGroup> ListFlagGroups(const ConfigSchema& schema) {
  std::vector<ConfigFlagGroup> groups;
  ConfigFlagGroup root;  // the schema's own scalars, in declaration order
  for (const ConfigFieldSpec& f : schema.fields()) {
    if (f.nested == nullptr) {
      root.flags.emplace_back(f.name, f.help);
      continue;
    }
    ConfigFlagGroup group;
    group.name = f.name;
    group.help = f.help;
    f.nested->ListPaths(f.name, &group.flags);
    groups.push_back(std::move(group));
  }
  if (!root.flags.empty()) groups.insert(groups.begin(), std::move(root));
  return groups;
}

std::string FlagsMarkdown(const ConfigSchema& schema,
                          const std::string& title) {
  std::string md = "# " + title + "\n\n";
  md += "Every field below is settable as `--<flag>=<value>` on the command "
        "line, as a dotted\npath in a JSON sweep axis, or as a (nested) key "
        "in a `--config` file. Derived from\nthe declared schema of `";
  md += schema.struct_name();
  md += "` — this listing never goes stale by hand.\n";
  for (const ConfigFlagGroup& g : ListFlagGroups(schema)) {
    md += "\n## ";
    md += g.name.empty() ? "top-level" : g.name;
    if (!g.help.empty()) {
      md += " — ";
      md += g.help;
    }
    md += "\n\n| flag | description |\n| --- | --- |\n";
    for (const auto& f : g.flags) {
      md += "| `--" + f.first + "` | " + f.second + " |\n";
    }
  }
  return md;
}

// --- typed conveniences -----------------------------------------------------

Status ParseExperimentConfig(const Json& v, ExperimentConfig* out) {
  return ExperimentConfigSchema().ParseJson(v, out);
}

Json EmitExperimentConfig(const ExperimentConfig& cfg) {
  return ExperimentConfigSchema().EmitJson(&cfg);
}

Status ValidateExperimentConfig(const ExperimentConfig& cfg) {
  return ExperimentConfigSchema().Validate(&cfg);
}

Status SetExperimentFlag(ExperimentConfig* cfg, const std::string& dotted,
                         const std::string& value) {
  return ExperimentConfigSchema().SetByPath(cfg, dotted, value);
}

}  // namespace lion
