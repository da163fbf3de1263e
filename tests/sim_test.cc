// Unit tests for the DES core: Simulator, Network, WorkerPool,
// PeriodicTimer.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/periodic_timer.h"
#include "sim/simulator.h"
#include "sim/worker_pool.h"

namespace lion {
namespace {

// --- Simulator ----------------------------------------------------------------
// tests/scheduler_equivalence_test.cc additionally checks the pop sequence
// against a reference priority queue on randomized workloads.

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(30, [&]() { order.push_back(3); });
  sim.Schedule(10, [&]() { order.push_back(1); });
  sim.Schedule(20, [&]() { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, TiesRunFifo) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.Schedule(100, [&, i]() { order.push_back(i); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim(1);
  int ran = 0;
  sim.Schedule(10, [&]() { ran++; });
  sim.Schedule(20, [&]() { ran++; });
  sim.Schedule(30, [&]() { ran++; });
  sim.RunUntil(20);
  EXPECT_EQ(ran, 2);           // events at t=10 and t=20 inclusive
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim(1);
  sim.RunUntil(500);
  EXPECT_EQ(sim.Now(), 500);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim(1);
  SimTime inner_time = -1;
  sim.Schedule(10, [&]() {
    sim.Schedule(15, [&]() { inner_time = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(inner_time, 25);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim(1);
  sim.Schedule(10, [&]() {
    sim.Schedule(-5, [&]() { EXPECT_EQ(sim.Now(), 10); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.processed_events(), 2u);
}

TEST(SimulatorTest, ProcessedEventCount) {
  Simulator sim(1);
  for (int i = 0; i < 100; ++i) sim.Schedule(i, []() {});
  sim.RunUntilIdle();
  EXPECT_EQ(sim.processed_events(), 100u);
}

TEST(SimulatorTest, ManyEventsInReverseOrderPopSorted) {
  // Exercises bucket sorting: inserts arrive in strictly decreasing time
  // order, the worst case for ordered inserts.
  Simulator sim(1);
  std::vector<SimTime> times;
  for (int i = 4096; i > 0; --i) {
    sim.Schedule(i * 7, [&]() { times.push_back(sim.Now()); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(times.size(), 4096u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.front(), 7);
  EXPECT_EQ(times.back(), 4096 * 7);
}

TEST(SimulatorTest, FarFutureEventsInterleaveCorrectly) {
  // Far deadlines land in the overflow list; near deadlines
  // admitted later must still pop first, and the far ones must surface once
  // the clock catches up.
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(10 * kSecond, [&]() { order.push_back(2); });  // overflow-far
  sim.Schedule(30 * kSecond, [&]() { order.push_back(3); });
  sim.Schedule(5, [&]() {
    order.push_back(0);
    sim.Schedule(20 * kSecond, [&]() { order.push_back(2); });
  });
  sim.Schedule(100, [&]() { order.push_back(1); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 2, 3}));
  EXPECT_EQ(sim.Now(), 30 * kSecond);
}

TEST(SimulatorTest, GrowShrinkChurnStaysOrdered) {
  // Pending depth swings 3 -> ~3000 -> 3 and back, forcing rebuilds in
  // both directions; order and counts must hold throughout.
  Simulator sim(7);
  SimTime last = -1;
  uint64_t ran = 0;
  auto check = [&]() {
    EXPECT_GE(sim.Now(), last);
    last = sim.Now();
    ran++;
  };
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3000; ++i) {
      sim.Schedule(static_cast<SimTime>(sim.rng().Uniform(100000)), check);
    }
    sim.RunUntilIdle();  // drain fully, then grow again
  }
  EXPECT_EQ(ran, 9000u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, DeepQueueGeometrySamplingKeepsOrder) {
  // Grows the pending set past the rebuild-time geometry sample cap (4096),
  // so rebuilds derive bucket width from a reservoir sample of the
  // deadlines instead of sorting all of them. Sampling shapes geometry
  // only — the (time, seq) pop order must stay exact.
  Simulator sim(11);
  SimTime last = -1;
  uint64_t ran = 0;
  auto check = [&]() {
    EXPECT_GE(sim.Now(), last);
    last = sim.Now();
    ran++;
  };
  for (int i = 0; i < 20000; ++i) {
    // Mixed scales: dense ns-range work plus a ms-range band, so resampled
    // widths actually move between rebuilds.
    SimTime d = (i % 5 == 0)
                    ? static_cast<SimTime>(sim.rng().Uniform(50)) * kMillisecond
                    : static_cast<SimTime>(sim.rng().Uniform(200000));
    sim.Schedule(d, check);
  }
  sim.RunUntilIdle();
  EXPECT_EQ(ran, 20000u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// --- Network ----------------------------------------------------------------

TEST(NetworkTest, RemoteDelayIncludesLatencyAndBandwidth) {
  Simulator sim;
  Network net(&sim, NetworkConfig{});
  SimTime delivered = -1;
  // 25 us one way, plus 1 MB at 117 MiB/s: 8,151,063 ns.
  net.Send(0, 1, 1'000'000, [&]() { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, 25 * kMicrosecond + 8'151'063);
}

TEST(NetworkTest, LoopbackIsCheapAndUncounted) {
  Simulator sim;
  NetworkConfig cfg;
  Network net(&sim, cfg);
  SimTime delivered = -1;
  net.Send(2, 2, 1 << 20, [&]() { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, cfg.local_latency);
  EXPECT_EQ(net.total_bytes(), 0u);
  EXPECT_EQ(net.total_messages(), 0u);
}

TEST(NetworkTest, CountsBytesAndMessages) {
  Simulator sim;
  Network net(&sim, NetworkConfig{});
  net.Send(0, 1, 100, []() {});
  net.Send(1, 0, 200, []() {});
  sim.RunUntilIdle();
  EXPECT_EQ(net.total_bytes(), 300u);
  EXPECT_EQ(net.total_messages(), 2u);
}

TEST(NetworkTest, WindowBytesAccumulatePerWindow) {
  Simulator sim;
  Network net(&sim, NetworkConfig{});
  net.Send(0, 1, 100, []() {});
  // Windows are 100 ms wide: the second send lands in window 5.
  sim.Schedule(500 * kMillisecond, [&]() { net.Send(0, 1, 700, []() {}); });
  sim.RunUntilIdle();
  const auto& w = net.window_bytes();
  ASSERT_GE(w.size(), 6u);
  EXPECT_EQ(w[0], 100u);
  EXPECT_EQ(w[5], 700u);
}

// --- WorkerPool ----------------------------------------------------------------

TEST(WorkerPoolTest, SingleWorkerSerializesTasks) {
  Simulator sim;
  WorkerPool pool(&sim, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(TaskPriority::kNew, 100, [&]() { completions.push_back(sim.Now()); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
}

TEST(WorkerPoolTest, ParallelWorkersOverlap) {
  Simulator sim;
  WorkerPool pool(&sim, 4);
  int done = 0;
  for (int i = 0; i < 4; ++i) pool.Submit(TaskPriority::kNew, 100, [&]() { done++; });
  sim.RunUntilIdle();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(sim.Now(), 100);  // all four ran concurrently
}

TEST(WorkerPoolTest, PriorityOrdering) {
  Simulator sim;
  WorkerPool pool(&sim, 1);
  std::vector<char> order;
  // Occupy the worker, then queue one of each class (reverse priority).
  pool.Submit(TaskPriority::kNew, 50, [&]() { order.push_back('x'); });
  pool.Submit(TaskPriority::kNew, 10, [&]() { order.push_back('n'); });
  pool.Submit(TaskPriority::kResume, 10, [&]() { order.push_back('r'); });
  pool.Submit(TaskPriority::kService, 10, [&]() { order.push_back('s'); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<char>{'x', 's', 'r', 'n'}));
}

TEST(WorkerPoolTest, DeepQueuesRunByPriorityThenFifo) {
  Simulator sim;
  WorkerPool pool(&sim, 1);
  // Occupy the worker, then queue 300 tasks, the three classes interleaved:
  // 100 per class, far past the task rings' initial capacity.
  pool.Submit(TaskPriority::kNew, 10, []() {});
  std::vector<std::pair<int, int>> order;  // (class, index within class)
  std::vector<std::pair<int, int>> expected;
  int queued[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    int cls = i % 3;
    int index = queued[cls]++;
    pool.Submit(static_cast<TaskPriority>(cls), 1 + i % 7,
                [&order, cls, index]() { order.emplace_back(cls, index); });
  }
  EXPECT_EQ(pool.queued_tasks(), 300u);
  for (int cls = 0; cls < 3; ++cls) {
    for (int index = 0; index < queued[cls]; ++index) {
      expected.emplace_back(cls, index);
    }
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(pool.completed_tasks(), 301u);
}

TEST(WorkerPoolTest, BusyTimeAccumulates) {
  Simulator sim;
  WorkerPool pool(&sim, 2);
  pool.Submit(TaskPriority::kNew, 100, []() {});
  pool.Submit(TaskPriority::kNew, 250, []() {});
  sim.RunUntilIdle();
  EXPECT_EQ(pool.busy_time(), 350);
  EXPECT_EQ(pool.completed_tasks(), 2u);
}

TEST(WorkerPoolTest, LoadReflectsQueue) {
  Simulator sim;
  WorkerPool pool(&sim, 1);
  pool.Submit(TaskPriority::kNew, 100, []() {});
  pool.Submit(TaskPriority::kNew, 100, []() {});
  pool.Submit(TaskPriority::kNew, 100, []() {});
  EXPECT_DOUBLE_EQ(pool.Load(), 3.0);  // 1 busy + 2 queued
  EXPECT_EQ(pool.queued_tasks(), 2u);
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(pool.Load(), 0.0);
}

TEST(WorkerPoolTest, ZeroDurationTaskCompletes) {
  Simulator sim;
  WorkerPool pool(&sim, 1);
  bool ran = false;
  pool.Submit(TaskPriority::kNew, 0, [&]() { ran = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(ran);
}

TEST(WorkerPoolTest, TaskChainingFromCallback) {
  Simulator sim;
  WorkerPool pool(&sim, 1);
  SimTime second_done = -1;
  pool.Submit(TaskPriority::kNew, 10, [&]() {
    pool.Submit(TaskPriority::kResume, 20, [&]() { second_done = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(second_done, 30);
}

// --- PeriodicTimer ----------------------------------------------------------

TEST(PeriodicTimerTest, TicksAtInterval) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTimer timer(&sim, [&](SimTime now) { ticks.push_back(now); });
  timer.Start(10);
  sim.RunUntil(35);
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_TRUE(timer.running());
}

TEST(PeriodicTimerTest, TicksAreWeak) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(&sim, [&](SimTime) { ticks++; });
  timer.Start(10);
  // Weak-only queues do not keep RunUntilIdle alive.
  sim.RunUntilIdle();
  EXPECT_EQ(ticks, 0);
  EXPECT_EQ(sim.Now(), 0);
}

TEST(PeriodicTimerTest, StopHaltsTheLoop) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(&sim, [&](SimTime) { ticks++; });
  timer.Start(10);
  sim.RunUntil(25);
  EXPECT_EQ(ticks, 2);
  timer.Stop();
  EXPECT_FALSE(timer.running());
  sim.RunUntil(100);
  EXPECT_EQ(ticks, 2);  // the pending tick is consumed silently
}

TEST(PeriodicTimerTest, RestartReusesPendingTickWithoutDoubling) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTimer timer(&sim, [&](SimTime now) { ticks.push_back(now); });
  timer.Start(10);
  sim.RunUntil(15);
  ASSERT_EQ(ticks.size(), 1u);
  // Stop and immediately resume while the t=20 tick is still pending: the
  // chain continues at the original cadence, with no duplicate timers.
  timer.Stop();
  timer.Start(10);
  sim.RunUntil(45);
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(PeriodicTimerTest, StopAfterPendingTickConsumedThenRestart) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(&sim, [&](SimTime) { ticks++; });
  timer.Start(10);
  sim.RunUntil(12);
  timer.Stop();
  sim.RunUntil(50);  // t=20 tick fires, is consumed, loop disarms
  EXPECT_EQ(ticks, 1);
  timer.Start(10);
  sim.RunUntil(75);  // fresh chain: ticks at 60 and 70
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimerTest, CallbackMayStopItsOwnTimer) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(&sim, [&](SimTime) {
    if (++ticks == 2) timer.Stop();
  });
  timer.Start(10);
  sim.RunUntil(200);
  EXPECT_EQ(ticks, 2);
}

}  // namespace
}  // namespace lion
