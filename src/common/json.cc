#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lion {

namespace {

/// Shortest decimal form that strtod's back to the same double, so emitted
/// configs survive a parse round trip bit-exactly. JSON has no non-finite
/// literals: infinities emit as over-range decimals (which strtod reads
/// back as +/-inf), NaN emits as null so a later parse fails loudly
/// instead of smuggling garbage through.
std::string FormatDouble(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// `s` as a quoted JSON string: quotes, backslashes and control characters
/// escaped.
void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

bool LexemeIsIntegral(const std::string& lexeme) {
  return lexeme.find_first_of(".eE") == std::string::npos;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Status ParseDocument(Json* out) {
    SkipWhitespace();
    Status s = ParseValue(out, 0);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters after value");
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 100;

  Status Error(const std::string& msg) const {
    // Position as line:column, both 1-based, for hand-edited config files.
    int line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        line++;
        col = 1;
      } else {
        col++;
      }
    }
    return Status::InvalidArgument("json parse error at " +
                                   std::to_string(line) + ":" +
                                   std::to_string(col) + ": " + msg);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      pos_++;
    }
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(const char* literal) {
    size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (Eof()) return Error("unexpected end of input");
    char c = Peek();
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string s;
        Status st = ParseString(&s);
        if (!st.ok()) return st;
        *out = Json::Str(std::move(s));
        return Status::OK();
      }
      case 't':
        if (Consume("true")) {
          *out = Json::Bool(true);
          return Status::OK();
        }
        return Error("invalid literal");
      case 'f':
        if (Consume("false")) {
          *out = Json::Bool(false);
          return Status::OK();
        }
        return Error("invalid literal");
      case 'n':
        if (Consume("null")) {
          *out = Json::Null();
          return Status::OK();
        }
        return Error("invalid literal");
      default: return ParseNumber(out);
    }
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (!Eof() && Peek() == '-') pos_++;
    if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      pos_ = start;
      return Error("invalid value");
    }
    if (Peek() == '0') {
      pos_++;
    } else {
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) pos_++;
    }
    if (!Eof() && Peek() == '.') {
      pos_++;
      if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek())))
        return Error("digit expected after decimal point");
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) pos_++;
    }
    if (!Eof() && (Peek() == 'e' || Peek() == 'E')) {
      pos_++;
      if (!Eof() && (Peek() == '+' || Peek() == '-')) pos_++;
      if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek())))
        return Error("digit expected in exponent");
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) pos_++;
    }
    // Keep the lexeme verbatim; typed accessors convert on demand.
    *out = Json::RawNumber(text_.substr(start, pos_ - start));
    return Status::OK();
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return Error("invalid \\u escape");
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    pos_++;  // opening quote
    out->clear();
    for (;;) {
      if (Eof()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20)
        return Error("unescaped control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (Eof()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          Status s = ParseHex4(&cp);
          if (!s.ok()) return s;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              return Error("unpaired surrogate");
            pos_ += 2;
            unsigned low = 0;
            s = ParseHex4(&low);
            if (!s.ok()) return s;
            if (low < 0xDC00 || low > 0xDFFF)
              return Error("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default: return Error("invalid escape character");
      }
    }
  }

  Status ParseArray(Json* out, int depth) {
    pos_++;  // '['
    *out = Json::Array();
    SkipWhitespace();
    if (!Eof() && Peek() == ']') {
      pos_++;
      return Status::OK();
    }
    for (;;) {
      Json item;
      Status s = ParseValue(&item, depth + 1);
      if (!s.ok()) return s;
      out->Add(std::move(item));
      SkipWhitespace();
      if (Eof()) return Error("unterminated array");
      char c = text_[pos_++];
      if (c == ']') return Status::OK();
      if (c != ',') {
        pos_--;
        return Error("',' or ']' expected in array");
      }
      SkipWhitespace();
    }
  }

  Status ParseObject(Json* out, int depth) {
    pos_++;  // '{'
    *out = Json::Object();
    SkipWhitespace();
    if (!Eof() && Peek() == '}') {
      pos_++;
      return Status::OK();
    }
    for (;;) {
      SkipWhitespace();
      if (Eof() || Peek() != '"') return Error("member name expected");
      std::string key;
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      if (out->Find(key) != nullptr)
        return Error("duplicate key \"" + key + "\"");
      SkipWhitespace();
      if (Eof() || text_[pos_] != ':') return Error("':' expected");
      pos_++;
      SkipWhitespace();
      Json value;
      s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Eof()) return Error("unterminated object");
      char c = text_[pos_++];
      if (c == '}') return Status::OK();
      if (c != ',') {
        pos_--;
        return Error("',' or '}' expected in object");
      }
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Json Json::Bool(bool b) {
  Json v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Json Json::Int(int64_t value) {
  Json v;
  v.type_ = Type::kNumber;
  v.scalar_ = std::to_string(value);
  return v;
}

Json Json::Uint(uint64_t value) {
  Json v;
  v.type_ = Type::kNumber;
  v.scalar_ = std::to_string(value);
  return v;
}

Json Json::Double(double value) {
  Json v;
  v.type_ = Type::kNumber;
  v.scalar_ = FormatDouble(value);
  return v;
}

Json Json::RawNumber(std::string lexeme) {
  Json v;
  v.type_ = Type::kNumber;
  v.scalar_ = std::move(lexeme);
  return v;
}

Json Json::Printf(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return RawNumber(buf);
}

Json Json::Str(std::string s) {
  Json v;
  v.type_ = Type::kString;
  v.scalar_ = std::move(s);
  return v;
}

Json Json::Array() {
  Json v;
  v.type_ = Type::kArray;
  return v;
}

Json Json::Object() {
  Json v;
  v.type_ = Type::kObject;
  return v;
}

Status Json::GetBool(bool* out) const {
  if (type_ != Type::kBool)
    return Status::InvalidArgument(std::string("expected bool, got ") +
                                   JsonTypeName(type_));
  *out = bool_;
  return Status::OK();
}

Status Json::GetDouble(double* out) const {
  if (type_ != Type::kNumber)
    return Status::InvalidArgument(std::string("expected number, got ") +
                                   JsonTypeName(type_));
  *out = std::strtod(scalar_.c_str(), nullptr);
  return Status::OK();
}

Status Json::GetInt64(int64_t* out) const {
  if (type_ != Type::kNumber)
    return Status::InvalidArgument(std::string("expected integer, got ") +
                                   JsonTypeName(type_));
  if (!LexemeIsIntegral(scalar_))
    return Status::InvalidArgument("expected integer, got " + scalar_);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(scalar_.c_str(), &end, 10);
  if (errno == ERANGE || end != scalar_.c_str() + scalar_.size())
    return Status::InvalidArgument(scalar_ + " out of int64 range");
  *out = v;
  return Status::OK();
}

Status Json::GetUint64(uint64_t* out) const {
  if (type_ != Type::kNumber)
    return Status::InvalidArgument(std::string("expected integer, got ") +
                                   JsonTypeName(type_));
  if (!LexemeIsIntegral(scalar_) || (!scalar_.empty() && scalar_[0] == '-'))
    return Status::InvalidArgument("expected unsigned integer, got " +
                                   scalar_);
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(scalar_.c_str(), &end, 10);
  if (errno == ERANGE || end != scalar_.c_str() + scalar_.size())
    return Status::InvalidArgument(scalar_ + " out of uint64 range");
  *out = v;
  return Status::OK();
}

const Json* Json::Find(const std::string& key) const {
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void Json::Add(Json v) { items_.push_back(std::move(v)); }

void Json::Set(std::string key, Json v) {
  members_.emplace_back(std::move(key), std::move(v));
}

std::string Json::Dump() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Json::AppendTo(std::string* out) const {
  switch (type_) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += bool_ ? "true" : "false"; break;
    case Type::kNumber: *out += scalar_; break;
    case Type::kString: AppendEscaped(out, scalar_); break;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out->push_back(',');
        items_[i].AppendTo(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendEscaped(out, members_[i].first);
        out->push_back(':');
        members_[i].second.AppendTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

Status Json::Parse(const std::string& text, Json* out) {
  return Parser(text).ParseDocument(out);
}

Status Json::ParseFile(const std::string& path, Json* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("cannot read " + path);
  Status s = Parse(text, out);
  if (!s.ok())
    return Status::InvalidArgument(path + ": " + s.message());
  return s;
}

const char* JsonTypeName(Json::Type type) {
  switch (type) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "unknown";
}

}  // namespace lion
