// Resumable periodic weak-event loop shared by the simulator's background
// machinery (Protocol epoch timer, Planner tick, Clay monitor,
// ReplicationManager epochs), which all used to hand-roll the same
// stop/resume idiom.
#pragma once

#include <utility>

#include "common/move_fn.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace lion {

/// Drives a callback every `interval` ns via weak events (the loop never
/// keeps RunUntilIdle alive). Semantics shared by all users:
///
///  - Start(interval) arms the loop; the first tick fires `interval` from
///    now. Idempotent: if a tick is already pending (including one left
///    over from before a Stop()), it is reused rather than doubled, so
///    Stop();Start() pairs never accumulate timers.
///  - Stop() halts the loop: the pending tick (weak, already scheduled)
///    fires but is consumed silently without running the callback or
///    re-arming. Idempotent.
///  - The callback may call Stop() on its owner; the loop then winds down
///    after the current tick.
///
/// The owner must outlive the simulator run or drain its events: a pending
/// tick holds a pointer to this timer.
class PeriodicTimer {
 public:
  using TickFn = MoveFn<void(SimTime now)>;

  /// `sim` may be null only if Start is never called (supports members of
  /// objects constructed against a null substrate in tests).
  PeriodicTimer(Simulator* sim, TickFn on_tick)
      : sim_(sim), on_tick_(std::move(on_tick)) {}

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Start(SimTime interval) {
    interval_ = interval;
    stopped_ = false;
    if (armed_) return;  // the pending tick resumes the chain
    armed_ = true;
    ScheduleTick();
  }

  void Stop() { stopped_ = true; }

  /// True while the loop is live (started and not stopped).
  bool running() const { return armed_ && !stopped_; }

 private:
  void ScheduleTick() {
    sim_->ScheduleWeak(interval_, [this]() {
      if (stopped_) {
        armed_ = false;
        return;
      }
      on_tick_(sim_->Now());
      // Re-check: the callback may have stopped its owner (and us) — do not
      // re-arm through a tick that would be consumed anyway.
      if (stopped_) {
        armed_ = false;
        return;
      }
      ScheduleTick();
    });
  }

  Simulator* sim_;
  TickFn on_tick_;
  SimTime interval_ = 0;
  bool armed_ = false;
  bool stopped_ = true;
};

}  // namespace lion
