#include "sim/worker_pool.h"

#include <cassert>
#include <utility>

namespace lion {

WorkerPool::WorkerPool(Simulator* sim, int workers)
    : sim_(sim), workers_(workers), busy_(0), busy_time_(0), completed_(0) {
  assert(workers > 0);
}

size_t WorkerPool::queued_tasks() const {
  return queues_[0].size() + queues_[1].size() + queues_[2].size();
}

double WorkerPool::Load() const {
  return static_cast<double>(busy_) + static_cast<double>(queued_tasks());
}

void WorkerPool::Submit(TaskPriority priority, SimTime duration,
                        MoveFn<void()> on_done) {
  if (duration < 0) duration = 0;
  // Park the callback in a recycled slot: a MoveFn captured inside another
  // event closure could never fit the event's inline buffer (it carries its
  // own), but a slot index is one word.
  uint32_t slot = inflight_.Park(std::move(on_done));
  queues_[static_cast<int>(priority)].push_back(Task{duration, slot});
  TryDispatch();
  assert(inflight_.in_use() == static_cast<size_t>(busy_) + queued_tasks());
}

void WorkerPool::TryDispatch() {
  while (busy_ < workers_) {
    RingQueue<Task>* next = nullptr;
    for (auto& queue : queues_) {
      if (!queue.empty()) {
        next = &queue;
        break;
      }
    }
    if (next == nullptr) return;
    RunTask(next->pop_front());
  }
}

void WorkerPool::RunTask(Task task) {
  busy_++;
  busy_time_ += task.duration;
  sim_->Schedule(task.duration, [this, slot = task.slot]() {
    busy_--;
    completed_++;
    // Take before running: the callback may submit follow-up tasks, which
    // can recycle this slot.
    MoveFn<void()> done = inflight_.Take(slot);
    if (done) done();
    TryDispatch();
  });
}

}  // namespace lion
