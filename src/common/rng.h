// Deterministic random number generation for reproducible simulations.
#pragma once

#include <cstdint>
#include <cstddef>

#include "common/types.h"

namespace lion {

/// PCG32 generator. Small, fast, and fully deterministic across platforms,
/// which keeps every simulated experiment reproducible from its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

  /// Uniform 32-bit value.
  uint32_t Next();

  /// Uniform 64-bit value.
  uint64_t Next64();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Returns true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Opaque snapshot of the generator position, equal iff the same number
  /// of draws happened since seeding. Lets stream-discipline asserts verify
  /// that a code path did not draw from a stream it must not touch.
  uint64_t StateFingerprint() const { return state_; }

 private:
  uint64_t state_;
  uint64_t inc_;
};

}  // namespace lion
