// Test-side reads of the members that the chaos, recovery and meta
// subsystems add to ExperimentResult::subsystems, addressed by dotted path
// ("integrity.violations"). A missing member records a test failure.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.h"

namespace lion {

/// The member at `path` in `object`; nullptr when any step is absent.
inline const Json* MemberAt(const Json& object, const std::string& path) {
  const Json* at = &object;
  size_t from = 0;
  while (at != nullptr) {
    size_t dot = path.find('.', from);
    at = at->Find(path.substr(from, dot - from));
    if (dot == std::string::npos) break;
    from = dot + 1;
  }
  return at;
}

/// The unsigned integer at `path`; 0 (and a test failure) when absent.
inline uint64_t UintAt(const Json& object, const std::string& path) {
  const Json* at = MemberAt(object, path);
  uint64_t v = 0;
  if (at == nullptr || !at->GetUint64(&v).ok()) {
    ADD_FAILURE() << "no unsigned integer at " << path;
    return 0;
  }
  return v;
}

/// The length of the array at `path`; 0 (and a test failure) when absent.
inline size_t LengthAt(const Json& object, const std::string& path) {
  const Json* at = MemberAt(object, path);
  if (at == nullptr || !at->is_array()) {
    ADD_FAILURE() << "no array at " << path;
    return 0;
  }
  return at->items().size();
}

/// The member at `path` as JSON text, for failure messages; "" when absent.
inline std::string DumpAt(const Json& object, const std::string& path) {
  const Json* at = MemberAt(object, path);
  return at == nullptr ? std::string() : at->Dump();
}

}  // namespace lion
