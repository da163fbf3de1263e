#include "common/rng.h"

#include <cassert>

namespace lion {

Rng::Rng(uint64_t seed) : state_(0), inc_((seed << 1u) | 1u) {
  Next();
  state_ += 0x9e3779b97f4a7c15ULL + seed;
  Next();
}

uint32_t Rng::Next() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

uint64_t Rng::Next64() {
  return (static_cast<uint64_t>(Next()) << 32) | Next();
}

uint64_t Rng::Uniform(uint64_t bound) {
  assert(bound > 0);
  return Next64() % bound;
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::NextDouble() {
  return static_cast<double>(Next()) / 4294967296.0;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

}  // namespace lion
