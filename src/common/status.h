// Status-based error handling (no exceptions), following the RocksDB/Arrow
// convention for database libraries.
#pragma once

#include <string>
#include <utility>

namespace lion {

/// Lightweight result of an operation that can fail.
///
/// Library code returns Status instead of throwing; callers must check `ok()`.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kNotFound,
    kAlreadyExists,
    kInvalidArgument,
    kInternal,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg = "") {
    return Status(Code::kAlreadyExists, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsInternal() const { return code_ == Code::kInternal; }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" form for logs and test failures.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Stable identifier ("OK", "NOT_FOUND", ...) for a status code — the one
/// switch shared by Status::ToString and every JSON emitter.
const char* StatusCodeName(Status::Code code);

}  // namespace lion
