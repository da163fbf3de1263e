// Event-order oracle: the Simulator's calendar queue must produce the exact
// (time, seq) pop sequence of a plain priority queue with the same clamp,
// weak-event, RunUntil and RunUntilIdle semantics — on randomized
// Schedule/ScheduleAt/ScheduleWeak interleavings, across RunUntil
// boundaries, through occupancy bursts, and on weak-only termination. The
// calendar's buckets, walk limits, lazy sorts and rebuilds are an
// optimization only; any divergence caught here is a correctness bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace lion {
namespace {

/// The reference: a binary heap over (at, seq), written for obviousness.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(uint64_t /*seed*/) {}

  SimTime Now() const { return now_; }
  void Schedule(SimTime delay, std::function<void()> fn) {
    Push(now_ + std::max<SimTime>(delay, 0), false, std::move(fn));
  }
  void ScheduleAt(SimTime at, std::function<void()> fn) {
    Push(at, false, std::move(fn));
  }
  void ScheduleWeak(SimTime delay, std::function<void()> fn) {
    Push(now_ + std::max<SimTime>(delay, 0), true, std::move(fn));
  }
  void RunUntil(SimTime until) {
    while (!queue_.empty() && queue_.top().at <= until) RunTop();
    now_ = std::max(now_, until);
  }
  void RunUntilIdle() {
    while (strong_pending_ > 0) RunTop();
  }
  uint64_t processed_events() const { return processed_; }
  size_t pending_events() const { return queue_.size(); }

 private:
  struct Event {
    SimTime at;
    uint64_t seq;
    bool weak;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  void Push(SimTime at, bool weak, std::function<void()> fn) {
    queue_.push(Event{std::max(at, now_), next_seq_++, weak, std::move(fn)});
    if (!weak) strong_pending_++;
  }
  void RunTop() {
    Event e = queue_.top();
    queue_.pop();
    now_ = e.at;
    processed_++;
    if (!e.weak) strong_pending_--;
    e.fn();
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t strong_pending_ = 0;
};

// --- randomized interleavings ------------------------------------------------

/// Everything observable about one run: the pop sequence (event id + the
/// clock when it ran), the clock after every phase, the deepest queue seen,
/// and the final counters.
struct Trace {
  std::vector<std::pair<int, SimTime>> pops;
  std::vector<SimTime> phase_clock;
  size_t max_pending = 0;
  uint64_t processed = 0;
  size_t pending = 0;

  bool operator==(const Trace& o) const {
    return pops == o.pops && phase_clock == o.phase_clock &&
           max_pending == o.max_pending && processed == o.processed &&
           pending == o.pending;
  }
};

/// Delay profiles stress different queue shapes: dense near-horizon
/// ties, mixed horizons spanning the bucket rotation, timer-like
/// far-future deadlines that live in the overflow list, and bursts that
/// swing the pending depth from tens to thousands and back (rebuilds in
/// both directions, ordered-insert walks past their limits, lazy sorts).
enum class Profile { kDense, kMixed, kFarHeavy, kBursty };

SimTime DrawDelay(Profile profile, std::mt19937_64& rng) {
  const bool far = profile == Profile::kFarHeavy || profile == Profile::kBursty;
  switch (rng() % 6) {
    case 0: return 0;  // tie with the running event
    case 1: return static_cast<SimTime>(rng() % 16);
    case 2: return static_cast<SimTime>(rng() % 1000);
    case 3:
      return profile == Profile::kDense ? static_cast<SimTime>(rng() % 64)
                                        : static_cast<SimTime>(rng() % 100000);
    case 4:
      return far ? static_cast<SimTime>(rng() % (50 * kMillisecond))
                 : static_cast<SimTime>(rng() % 5000);
    default:
      return profile == Profile::kDense
                 ? static_cast<SimTime>(rng() % 256)
                 : static_cast<SimTime>(rng() % (2 * kMillisecond));
  }
}

/// Runs one deterministic pseudo-random schedule program. The program's
/// choices are driven by a private mt19937 whose draws happen in pop order,
/// so identical pop sequences consume identical randomness — and any order
/// divergence between the queues snowballs into an unmistakable trace diff.
template <typename Queue>
Trace RunProgram(uint64_t seed, Profile profile) {
  Queue sim(seed);
  Trace trace;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  int next_id = 0;
  int budget = 8000;  // total events the program may still create

  // Self-propagating event body: record the pop, then maybe schedule
  // children through every entry point the queue offers.
  struct Spawner {
    Queue* sim;
    Trace* trace;
    std::mt19937_64* rng;
    int* next_id;
    int* budget;
    Profile profile;

    void SpawnOne() {
      int id = (*next_id)++;
      SimTime delay = DrawDelay(profile, *rng);
      auto body = [this, id]() {
        trace->pops.emplace_back(id, sim->Now());
        trace->max_pending =
            std::max(trace->max_pending, sim->pending_events());
        int children = static_cast<int>((*rng)() % 3);
        // Rare bursts of 256-1279 events at once.
        if (profile == Profile::kBursty && (*rng)() % 1024 == 0) {
          children = 256 + static_cast<int>((*rng)() % 1024);
        }
        for (int c = 0; c < children && *budget > 0; ++c) {
          --*budget;
          SpawnOne();
        }
      };
      switch ((*rng)() % 4) {
        case 0: sim->ScheduleAt(sim->Now() + delay, body); break;
        case 1: sim->ScheduleWeak(delay, body); break;
        default: sim->Schedule(delay, body); break;
      }
    }
  };
  Spawner spawner{&sim, &trace, &rng, &next_id, &budget, profile};

  for (int i = 0; i < 32 && budget > 0; ++i) {
    --budget;
    spawner.SpawnOne();
  }
  // Events landing exactly on a RunUntil boundary must run in that phase.
  sim.ScheduleAt(5000, [&]() { trace.pops.emplace_back(--next_id, sim.Now()); });

  sim.RunUntil(5000);
  trace.phase_clock.push_back(sim.Now());
  for (int i = 0; i < 16 && budget > 0; ++i) {
    --budget;
    spawner.SpawnOne();
  }
  sim.RunUntil(2 * kMillisecond);
  trace.phase_clock.push_back(sim.Now());
  for (int i = 0; i < 8 && budget > 0; ++i) {
    --budget;
    spawner.SpawnOne();
  }
  sim.RunUntilIdle();
  trace.phase_clock.push_back(sim.Now());

  trace.processed = sim.processed_events();
  trace.pending = sim.pending_events();
  return trace;
}

TEST(SchedulerEquivalenceTest, RandomizedInterleavings) {
  for (Profile profile : {Profile::kDense, Profile::kMixed,
                          Profile::kFarHeavy, Profile::kBursty}) {
    size_t deepest = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Trace ref = RunProgram<ReferenceQueue>(seed, profile);
      Trace sim = RunProgram<Simulator>(seed, profile);
      ASSERT_TRUE(ref == sim)
          << "pop sequences diverged at profile=" << static_cast<int>(profile)
          << " seed=" << seed << " (reference popped " << ref.pops.size()
          << " events, simulator " << sim.pops.size() << ")";
      ASSERT_GT(ref.pops.size(), 100u) << "degenerate program, seed=" << seed;
      deepest = std::max(deepest, ref.max_pending);
    }
    if (profile == Profile::kBursty) {
      EXPECT_GT(deepest, 2000u) << "bursts never built a deep queue";
    }
  }
}

/// Weak-only termination: what each step of a fixed script leaves behind.
struct WeakRun {
  std::vector<int> ticks;
  std::vector<SimTime> clock;
  std::vector<size_t> pending;

  bool operator==(const WeakRun& o) const {
    return ticks == o.ticks && clock == o.clock && pending == o.pending;
  }
};

template <typename Queue>
WeakRun RunWeakOnlyScript() {
  Queue sim(3);
  WeakRun run;
  int ticks = 0;
  auto record = [&]() {
    run.ticks.push_back(ticks);
    run.clock.push_back(sim.Now());
    run.pending.push_back(sim.pending_events());
  };
  // Weak-only queues must not keep RunUntilIdle alive at all.
  sim.ScheduleWeak(10, [&]() { ticks++; });
  sim.ScheduleWeak(10 * kSecond, [&]() { ticks++; });  // overflow-far
  sim.RunUntilIdle();
  record();
  // A strong event wakes the run back up and drags earlier weak ones in.
  sim.Schedule(50, [&]() {});
  sim.RunUntilIdle();
  record();
  // RunUntil does run weak events, up to and including its boundary.
  sim.ScheduleWeak(20 * kSecond - 50, [&]() { ticks++; });
  sim.RunUntil(20 * kSecond);
  record();
  return run;
}

TEST(SchedulerEquivalenceTest, WeakOnlyQueueTerminatesIdentically) {
  WeakRun ref = RunWeakOnlyScript<ReferenceQueue>();
  WeakRun sim = RunWeakOnlyScript<Simulator>();
  EXPECT_TRUE(ref == sim);
  EXPECT_EQ(sim.ticks, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(sim.clock, (std::vector<SimTime>{0, 50, 20 * kSecond}));
  EXPECT_EQ(sim.pending, (std::vector<size_t>{2, 1, 0}));
}

}  // namespace
}  // namespace lion
