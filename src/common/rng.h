// Deterministic random number generation for reproducible simulations.
#pragma once

#include <cassert>
#include <cstdint>

namespace lion {

/// PCG32 generator. Small, fast, and fully deterministic across platforms,
/// which keeps every simulated experiment reproducible from its seed. Every
/// draw is defined here so that callers inline it; a draw that takes two
/// words takes them in a fixed order, since the order in which a compiler
/// evaluates two calls in one expression is unspecified.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL)
      : state_(0), inc_((seed << 1u) | 1u) {
    Next();
    state_ += 0x9e3779b97f4a7c15ULL + seed;
    Next();
  }

  /// Uniform 32-bit value.
  uint32_t Next() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform 64-bit value: the first 32-bit draw is the high word.
  uint64_t Next64() {
    uint64_t hi = Next();
    return (hi << 32) | Next();
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound) {
    assert(bound > 0);
    return Next64() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo +
           static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next()) / 4294967296.0; }

  /// Returns true with probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Opaque snapshot of the generator position, equal iff the same number
  /// of draws happened since seeding. Lets stream-discipline asserts verify
  /// that a code path did not draw from a stream it must not touch.
  uint64_t StateFingerprint() const { return state_; }

 private:
  uint64_t state_;
  uint64_t inc_;
};

}  // namespace lion
