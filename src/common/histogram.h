// Latency histogram with percentile extraction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/types.h"

namespace lion {

/// Log-bucketed histogram for latency-like quantities (nanoseconds).
///
/// Buckets grow geometrically: 16 per power of two. A percentile reports its
/// bucket's lower bound, which lies up to 6.25% (1/16) below the sample it
/// stands for. Percentile queries are cheap and memory use is constant
/// regardless of sample count.
///
/// Record() runs once per transaction (latency, phase breakdowns), so the
/// whole per-sample path is inline and O(1): bucket selection is a single
/// bit-scan (count-leading-zeros) plus shifts — no loops, no out-of-line
/// call.
class Histogram {
 public:
  Histogram();

  /// Records one sample. Negative samples are clamped to zero.
  void Record(int64_t value) {
    if (value < 0) value = 0;
    buckets_[BucketFor(value)]++;
    count_++;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  /// Returns the value at quantile q in [0, 1]; 0 if empty.
  int64_t Percentile(double q) const;

  int64_t Min() const { return count_ == 0 ? 0 : min_; }
  int64_t Max() const { return count_ == 0 ? 0 : max_; }
  uint64_t Count() const { return count_; }

  void Reset();

 private:
  // 16 sub-buckets per power of two covers the int64 range in 64*16 buckets.
  static constexpr size_t kSubBuckets = 16;
  static constexpr size_t kNumBuckets = 64 * kSubBuckets;

  static size_t BucketFor(int64_t value) {
    uint64_t v = static_cast<uint64_t>(value < 0 ? 0 : value);
    if (v < kSubBuckets) return static_cast<size_t>(v);
    int msb = 63 - __builtin_clzll(v);  // bit-scan: O(1) per sample
    // Position within the power-of-two range, quantized to kSubBuckets slots.
    uint64_t offset = (v - (1ULL << msb)) >> (msb - 4);
    size_t idx =
        static_cast<size_t>(msb) * kSubBuckets + static_cast<size_t>(offset);
    return std::min(idx, kNumBuckets - 1);
  }
  static int64_t BucketLow(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_;
  int64_t min_;
  int64_t max_;
};

}  // namespace lion
