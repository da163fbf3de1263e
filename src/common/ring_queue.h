// Growable FIFO ring that recycles its storage.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace lion {

/// A FIFO queue over a power-of-two ring that only ever grows. Unlike
/// std::deque, which allocates a fresh chunk and frees a drained one every
/// few elements as a busy queue cycles through it, a RingQueue allocates
/// only when it outgrows its high-water mark: the worker pool's task queues
/// see every submitted task, and this keeps them allocation-free in steady
/// state. T must be default-constructible and movable (move-only is fine).
template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == slots_.size()) Grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes and returns the oldest element. The queue must be non-empty.
  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // capacity is zero or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace lion
