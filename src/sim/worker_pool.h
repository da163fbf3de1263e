// Multi-server CPU model for one simulated node.
#pragma once

#include <cstdint>

#include "common/move_fn.h"
#include "common/ring_queue.h"
#include "common/slot_pool.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace lion {

/// Task admission classes, highest priority first.
///
/// kService models the coco/Star worker loop serving incoming remote-op and
/// control messages ahead of local work; kResume continues an in-flight
/// transaction whose awaited response arrived; kNew admits a fresh
/// transaction. Prioritizing service/resume over new admission is what keeps
/// the simulated system work-conserving without deadlocking on full pools.
enum class TaskPriority : int { kService = 0, kResume = 1, kNew = 2 };

/// A pool of `k` workers on one node. Submitted tasks occupy a worker for a
/// service duration, then run their completion callback. Excess tasks queue
/// per priority class in FIFO order.
class WorkerPool {
 public:
  WorkerPool(Simulator* sim, int workers);

  /// Enqueues a task needing `duration` ns of worker time; `on_done` runs
  /// when the task's service completes. Move-only: the callback is parked
  /// once, in a recycled slot, and stays there until it runs, so a queued
  /// task is its duration and slot index, the completion event's closure is
  /// two words, and submission never allocates.
  void Submit(TaskPriority priority, SimTime duration,
              MoveFn<void()> on_done);

  int workers() const { return workers_; }
  size_t queued_tasks() const;

  /// Total worker-busy nanoseconds (for utilization reporting).
  SimTime busy_time() const { return busy_time_; }

  /// Tasks completed since construction.
  uint64_t completed_tasks() const { return completed_; }

  /// Approximate instantaneous load: busy workers + queued tasks.
  double Load() const;

 private:
  /// A queued task: 16 bytes; its callback waits in `inflight_`.
  struct Task {
    SimTime duration = 0;
    uint32_t slot = 0;
  };

  void TryDispatch();
  void RunTask(Task task);

  Simulator* sim_;
  int workers_;
  int busy_;
  SimTime busy_time_;
  uint64_t completed_;
  RingQueue<Task> queues_[3];
  // Callbacks of queued and running tasks. Tasks and completion events
  // reference their slot instead of owning the callback, so the callback is
  // moved once on submission and once to run, and the completion closure
  // stays inline in MoveFn's small buffer.
  SlotPool<MoveFn<void()>> inflight_;
};

}  // namespace lion
