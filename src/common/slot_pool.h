// Recycled slot storage for in-flight values referenced by index.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace lion {

/// Parks values in a slab and hands out stable uint32 indices, recycling
/// freed slots so the steady state allocates nothing. Shared by the
/// simulator's event queue and the worker pool, which both park a move-only
/// callback per in-flight item and reference it by index (the queue's node
/// array, a completion closure) instead of carrying it around.
///
/// Invariant the callers rely on: Take() moves the value out and frees the
/// slot *before* the caller runs it, because running it may Park() again
/// and legitimately recycle the same slot.
template <typename T>
class SlotPool {
 public:
  /// Stores `value` and returns its slot index.
  uint32_t Park(T&& value) {
    if (!free_.empty()) {
      uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(value);
      return slot;
    }
    uint32_t slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(value));
    // Every slot can be free at once; sizing the free list with the slab
    // leaves new high-water marks as the only point that allocates.
    free_.reserve(slots_.capacity());
    return slot;
  }

  /// Moves the value out of `slot` and recycles the slot.
  T Take(uint32_t slot) {
    T value = std::move(slots_[slot]);
    free_.push_back(slot);
    return value;
  }

  void Reserve(size_t n) {
    slots_.reserve(n);
    free_.reserve(n);
  }

  /// Number of currently parked values. Owners that mirror the pool with
  /// their own pending count (the simulator's event queue, the worker pool)
  /// assert against this to catch leaked or double-taken slots.
  size_t in_use() const { return slots_.size() - free_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace lion
