// The workload analyzer's transaction history: the last B partition sets.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace lion {

/// The partition sets of the last `capacity` transactions, stored back to
/// back in one flat buffer and visited oldest first. The planner keeps
/// B = 20,000 of them (Sec. IV-A) and records one per routed transaction, so
/// a push copies the set behind the newest one, and evicting the oldest only
/// advances an index: no heap block per transaction.
///
/// When a set would run past the end of the buffer, the live sets slide back
/// to its front. The buffer is kept at least twice the size of the live sets
/// plus the incoming one, so a slide moves no more than was written since the
/// previous one. It grows only when that total reaches a new high-water
/// mark, so a full ring fed sets of steady sizes never allocates.
class HistoryRing {
 public:
  explicit HistoryRing(size_t capacity) : capacity_(capacity) {}

  size_t size() const { return count_; }
  size_t capacity() const { return capacity_; }

  /// Appends the `n` partitions at `parts` as the newest set, dropping the
  /// oldest set once `capacity` are held.
  void Push(const PartitionId* parts, size_t n) {
    if (capacity_ == 0) return;
    if (count_ == capacity_) {
      head_ = Wrap(head_ + 1);
      count_--;
    }
    const uint64_t live_begin = count_ == 0 ? end_ : starts_[head_];
    const size_t want = 2 * (static_cast<size_t>(end_ - live_begin) + n);
    if (want > data_.size()) {
      size_t grown = std::max<size_t>(data_.size(), kMinBuffer);
      while (grown < want) grown *= 2;
      std::vector<PartitionId> bigger(grown);
      MoveLiveTo(live_begin, bigger.data());
      data_.swap(bigger);
    } else if (end_ - base_ + n > data_.size()) {
      // Slide: the destination starts before the source, so a forward copy
      // is safe although the ranges may overlap.
      MoveLiveTo(live_begin, data_.data());
    }
    std::copy(parts, parts + n, data_.data() + (end_ - base_));
    // The ring of starts grows with the history until it is full, so
    // set-up allocates nothing and memory follows what was recorded.
    const size_t slot = Wrap(head_ + count_);
    if (slot == starts_.size()) {
      starts_.push_back(end_);
    } else {
      starts_[slot] = end_;
    }
    count_++;
    end_ += n;
  }

  /// Calls `fn(const PartitionId* parts, size_t n)` for every held set,
  /// oldest first. `parts` stays valid until the next Push.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t k = 0; k < count_; ++k) {
      const uint64_t begin = starts_[Wrap(head_ + k)];
      const uint64_t end =
          k + 1 < count_ ? starts_[Wrap(head_ + k + 1)] : end_;
      fn(data_.data() + (begin - base_), static_cast<size_t>(end - begin));
    }
  }

 private:
  static constexpr size_t kMinBuffer = 64;

  /// `i` for any index below twice the capacity.
  size_t Wrap(size_t i) const { return i < capacity_ ? i : i - capacity_; }

  /// Copies the live sets, which start at absolute position `live_begin`,
  /// to `dst` and makes `dst` the buffer's front.
  void MoveLiveTo(uint64_t live_begin, PartitionId* dst) {
    std::copy(data_.data() + (live_begin - base_), data_.data() + (end_ - base_),
              dst);
    base_ = live_begin;
  }

  // Positions are absolute: they only grow, and data_[0] holds position
  // base_. starts_ is a ring of the held sets' first positions; a set ends
  // where the next one starts, the newest at end_.
  size_t capacity_;
  std::vector<uint64_t> starts_;
  size_t head_ = 0;   // ring index of the oldest set
  size_t count_ = 0;  // sets held
  std::vector<PartitionId> data_;
  uint64_t base_ = 0;
  uint64_t end_ = 0;
};

}  // namespace lion
