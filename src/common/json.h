// Minimal JSON document model + parser: configuration round trips, and the
// one emitter of run results and sweep reports (harness/).
//
// Numbers keep their source lexeme and are re-emitted verbatim, so
// parse→emit is lossless for any 64-bit integer or shortest-form double — a
// property the config schema layer (harness/config_schema.h) relies on for
// exact ExperimentConfig round trips. The parser is a strict RFC 8259
// subset: UTF-8 input, \uXXXX escapes (incl. surrogate pairs), duplicate
// object keys rejected, trailing garbage rejected, errors reported as
// Status with line:column positions. No external dependency.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace lion {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Json>;

  Json() : type_(Type::kNull) {}

  // --- construction ---------------------------------------------------------
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Int(int64_t v);
  static Json Uint(uint64_t v);
  /// Shortest decimal lexeme that parses back to exactly `v`.
  static Json Double(double v);
  /// Number from an already-validated lexeme (parser + schema use; the
  /// caller vouches that `lexeme` matches the JSON number grammar).
  static Json RawNumber(std::string lexeme);
  /// `v` printed with a printf `format` such as "%.6g": the fixed precision
  /// of result and report numbers. Non-finite values print as printf does.
  static Json Printf(const char* format, double v);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // --- checked scalar access -------------------------------------------------
  /// Type mismatches come back as kInvalidArgument ("expected number, got
  /// string"); integer accessors additionally reject fractional/exponent
  /// lexemes and out-of-range magnitudes.
  Status GetBool(bool* out) const;
  Status GetDouble(double* out) const;
  Status GetInt64(int64_t* out) const;
  Status GetUint64(uint64_t* out) const;

  /// String payload; valid only when is_string().
  const std::string& str() const { return scalar_; }

  // --- containers ------------------------------------------------------------
  const std::vector<Json>& items() const { return items_; }
  const std::vector<Member>& members() const { return members_; }
  /// Object member lookup; nullptr when absent (or not an object).
  const Json* Find(const std::string& key) const;

  /// Appends to an array value.
  void Add(Json v);
  /// Appends a member to an object value (duplicate keys are the caller's
  /// bug; the parser never produces them).
  void Set(std::string key, Json v);

  // --- serialization ---------------------------------------------------------
  /// Compact form: no whitespace, members in stored order.
  std::string Dump() const;

  /// Parses one complete document from `text`.
  static Status Parse(const std::string& text, Json* out);
  /// Reads `path` fully and parses it; read failures are kNotFound.
  static Status ParseFile(const std::string& path, Json* out);

 private:
  void AppendTo(std::string* out) const;

  Type type_;
  bool bool_ = false;
  std::string scalar_;  // number lexeme or string payload
  std::vector<Json> items_;
  std::vector<Member> members_;
};

/// Lower-case type name ("number", "object", ...) for error messages.
const char* JsonTypeName(Json::Type type);

}  // namespace lion
