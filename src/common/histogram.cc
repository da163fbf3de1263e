#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lion {

Histogram::Histogram()
    : buckets_(kNumBuckets, 0),
      count_(0),
      min_(std::numeric_limits<int64_t>::max()),
      max_(std::numeric_limits<int64_t>::min()) {}

int64_t Histogram::BucketLow(size_t index) {
  if (index < kSubBuckets) return static_cast<int64_t>(index);
  size_t msb = index / kSubBuckets;
  size_t offset = index % kSubBuckets;
  uint64_t base = 1ULL << msb;
  return static_cast<int64_t>(base + (offset << (msb - 4)));
}

int64_t Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::clamp(BucketLow(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = std::numeric_limits<int64_t>::max();
  max_ = std::numeric_limits<int64_t>::min();
}

}  // namespace lion
