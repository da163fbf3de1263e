// Discrete-event simulation core: a clock and an ordered event queue.
#pragma once

#include <cstdint>
#include <vector>

#include "common/move_fn.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "common/types.h"

namespace lion {

/// Single-threaded discrete-event simulator.
///
/// Events are closures ordered by (time, insertion sequence); ties resolve in
/// FIFO order, which keeps runs deterministic. All components in one
/// experiment share the simulator's clock and RNG.
///
/// Events come in two strengths: regular ("strong") events represent real
/// pending work, while *weak* events (periodic tickers: epoch group commit,
/// planners, sequencers) do not keep the simulation alive — RunUntilIdle
/// stops once only weak events remain.
///
/// The queue is a calendar queue: events bucket by `at >> bucket_shift` into
/// a power-of-two ring and dispatch in O(1) amortized. Its geometry shapes
/// only how fast events are found, never the (time, seq) pop order
/// (tests/scheduler_equivalence_test.cc checks it against a reference
/// priority queue). Every buffer it keeps is sized from the pending-event
/// high-water mark, so schedule→dispatch allocates only when more events
/// are pending than ever before.
class Simulator {
 public:
  /// Events are move-only callables, so closures may own their transaction
  /// (or any other unique_ptr state) outright — no copyable-closure shims.
  using EventFn = MoveFn<void()>;

  explicit Simulator(uint64_t seed = 1);

  /// Current simulated time (ns since experiment start).
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` ns from now (clamped to >= 0).
  void Schedule(SimTime delay, EventFn fn);

  /// Schedules `fn` at the absolute time `at` (clamped to >= Now()).
  void ScheduleAt(SimTime at, EventFn fn);

  /// Schedules a weak event: periodic background machinery that should not
  /// prevent RunUntilIdle from terminating.
  void ScheduleWeak(SimTime delay, EventFn fn);

  /// Runs events until the queue is empty or the clock passes `until`.
  /// Events scheduled exactly at `until` are executed; the clock always
  /// advances to `until`.
  void RunUntil(SimTime until);

  /// Runs until no strong events remain.
  void RunUntilIdle();

  /// Number of events executed so far.
  uint64_t processed_events() const { return processed_; }

  /// Number of events currently pending (strong + weak).
  size_t pending_events() const { return pending_; }

  /// The experiment-wide deterministic RNG.
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }

  /// The seed this simulator (and its RNG) was constructed with. Components
  /// that keep private streams (network jitter) derive theirs from it so a
  /// whole experiment remains a function of one seed.
  uint64_t seed() const { return seed_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // A pending event's queue state, stored at its closure's `slots_` index:
  // the queue links and reorders these 32-byte PODs and never moves the
  // closure itself.
  struct Node {
    SimTime at;
    uint64_t seq;
    uint32_t prev;
    uint32_t next;
    bool weak;
  };
  // Staging copy of a node for sorts and rebuilds.
  struct Key {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };
  // (at, seq) is a total order (seq is unique), so the pop sequence — and
  // with it the whole simulation — is deterministic regardless of how the
  // queue arranges entries internally.
  template <typename A, typename B>
  static bool Earlier(const A& a, const B& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// A calendar bucket or the overflow list: a doubly linked list through
  /// `nodes_`, ascending by (at, seq) up to `unsorted`. Timer chains and
  /// closed-loop drivers insert in nearly monotone order, so most inserts
  /// append or step back a few nodes. An insert that would walk further
  /// appends instead and starts (or joins) the unsorted suffix, which the
  /// next pop from this list sorts and merges into the prefix in one pass.
  struct List {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t size = 0;
    uint32_t unsorted = kNil;  // first node of the unsorted suffix, if any
  };

  void Push(SimTime at, bool weak, EventFn fn);
  /// Unlinks the earliest pending event if its time is <= `limit`.
  bool PopIfAtMost(SimTime limit, uint32_t* slot);
  /// Advances the clock to the event's time and runs its closure.
  void RunSlot(uint32_t slot);

  /// Sizes every queue buffer for `n` nodes (the pending high-water mark).
  void GrowTo(size_t n);
  /// Routes a node to its bucket, or to `overflow_` beyond one rotation.
  void Place(uint32_t slot);
  /// Links `slot` into `list` at its (at, seq) position, walking back from
  /// the tail at most `max_walk` nodes before appending unsorted instead.
  void Insert(List* list, uint32_t slot, size_t max_walk);
  /// Links `slot` between adjacent nodes `prev` and `next` (kNil at ends).
  void Link(List* list, uint32_t slot, uint32_t prev, uint32_t next);
  /// Sorts the unsorted suffix and merges it into the sorted prefix.
  void SortSuffix(List* list);
  /// Re-derives the ring's size and bucket width from the pending events
  /// and re-admits them all.
  void Rebuild();
  uint32_t SampleBucketShift();

  uint64_t seed_;
  SimTime now_;
  uint64_t next_seq_;
  uint64_t processed_;
  uint64_t strong_pending_;
  size_t pending_;

  // Pending closures, parked by index; `nodes_` is indexed the same way.
  SlotPool<EventFn> slots_;
  std::vector<Node> nodes_;

  // Buckets index by absolute bucket number `at >> bucket_shift_` into a
  // power-of-two ring; events beyond one full rotation of the ring park in
  // `overflow_`.
  std::vector<List> buckets_;
  uint64_t bucket_mask_ = 0;
  uint32_t bucket_shift_ = 0;
  size_t cal_size_ = 0;  // events in buckets_ (overflow_ excluded)
  size_t ops_since_rebuild_ = 0;  // pop cadence for geometry resampling
  List overflow_;
  // Shared by sorts and rebuilds; reserved against the node count.
  std::vector<Key> scratch_;
  std::vector<SimTime> scratch_times_;
  std::vector<SimTime> scratch_gaps_;

  Rng rng_;
  // Geometry sampling RNG, separate from rng_: experiments draw from rng_,
  // so queue-internal draws must never perturb that stream. Geometry only
  // shapes bucket widths — the pop order is (at, seq) regardless — but the
  // draws are kept deterministic anyway so rebuild behavior reproduces run
  // to run.
  Rng geometry_rng_;
};

}  // namespace lion
