#include "common/status.h"

namespace lion {

const char* StatusCodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NOT_FOUND";
    case Status::Code::kAlreadyExists:
      return "ALREADY_EXISTS";
    case Status::Code::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case Status::Code::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace lion
