#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace lion {

namespace {
// Past the typical steady-state depth (closed-loop drivers keep a few
// hundred to a few thousand events pending), so the hot path never
// reallocates — and never move-relocates every queued closure — mid-run.
constexpr size_t kInitialCapacity = 4096;

// Calendar geometry bounds. The bucket count tracks occupancy between
// rebuilds (kMinBuckets caps the fixed walk cost of sparse queues, the max
// caps memory); the shift caps bucket width at 2^40 ns (~18 simulated
// minutes), far past any experiment horizon.
constexpr size_t kMinBuckets = 32;
constexpr size_t kMaxBuckets = size_t{1} << 18;
constexpr uint32_t kMaxBucketShift = 40;
// ~1 us buckets until the first resample.
constexpr uint32_t kInitBucketShift = 10;

// Geometry also resamples on a pop cadence (every max(kResampleMinOps,
// 8 x pending) pops), not just on occupancy drift: a queue that holds a
// steady *count* of events can still have its delay distribution shift out
// from under a frozen bucket width — too wide concentrates everything in
// one bucket (long ordered-insert walks), too narrow spills everything to
// overflow. The cadence bounds either mispairing to a few thousand ops.
constexpr size_t kResampleMinOps = 8192;

// An out-of-order insert into a bucket walks back from the tail at most
// this many nodes to find its place; further back, it joins the bucket's
// unsorted suffix, which the next pop merges in. Shallow steady states (a
// closed-loop driver keeps tens of events pending, often all in one bucket)
// thus stay sorted without any merge.
constexpr size_t kOrderedInsertMax = 48;

// Rebuild-time geometry sampling cap: above this many pending entries the
// width statistic is computed over a reservoir sample of deadlines instead
// of all of them, so a rebuild costs O(n + cap log cap) rather than
// O(n log n) — for 100k+-event queues that turns the occasional rebuild
// from a latency spike into noise. 4096 deadlines pin the median gap far
// more tightly than the 2x width heuristic needs.
constexpr size_t kGeometrySampleMax = 4096;

// The overflow list's walk limit. Far deadlines grow with the clock (timer
// re-arms, txn completions at now + delay), so new entries land at or near
// the back; only a short deadline arriving while a long backlog is parked
// walks further, and that rare case falls back to the unsorted suffix.
constexpr size_t kOverflowSpliceMax = 256;

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

size_t RingSizeFor(size_t events) {
  return NextPow2(std::min(std::max(events, kMinBuckets), kMaxBuckets));
}
}  // namespace

Simulator::Simulator(uint64_t seed)
    : seed_(seed),
      now_(0),
      next_seq_(0),
      processed_(0),
      strong_pending_(0),
      pending_(0),
      rng_(seed) {
  slots_.Reserve(kInitialCapacity);
  nodes_.reserve(kInitialCapacity);
  GrowTo(0);  // sizes the staging buffers and the ring for that capacity
  buckets_.resize(kMinBuckets * 2);
  bucket_mask_ = buckets_.size() - 1;
  bucket_shift_ = kInitBucketShift;
}

void Simulator::GrowTo(size_t n) {
  // Everything the queue stages or indexes is bounded by the node count: a
  // sort or rebuild stages at most every pending event, the geometry sample
  // at most kGeometrySampleMax of them, and the ring holds RingSizeFor of
  // them. Reserving all of it against the nodes' capacity (which doubles)
  // confines allocation to new pending high-water marks. std::vector never
  // gives capacity back, so the ring keeps its storage across shrinks.
  nodes_.resize(n);
  const size_t cap = nodes_.capacity();
  scratch_.reserve(cap);
  scratch_times_.reserve(std::min(cap, kGeometrySampleMax));
  scratch_gaps_.reserve(std::min(cap, kGeometrySampleMax));
  buckets_.reserve(RingSizeFor(cap));
}

void Simulator::Place(uint32_t slot) {
  const uint64_t eb = static_cast<uint64_t>(nodes_[slot].at) >> bucket_shift_;
  const uint64_t nb = static_cast<uint64_t>(now_) >> bucket_shift_;
  if (eb - nb >= buckets_.size()) {
    Insert(&overflow_, slot, kOverflowSpliceMax);
    return;
  }
  cal_size_++;
  Insert(&buckets_[eb & bucket_mask_], slot, kOrderedInsertMax);
}

void Simulator::Insert(List* list, uint32_t slot, size_t max_walk) {
  const Node& node = nodes_[slot];
  uint32_t after = list->tail;
  if (list->unsorted == kNil) {
    for (size_t walked = 0; after != kNil && Earlier(node, nodes_[after]);
         after = nodes_[after].prev) {
      if (++walked > max_walk) {
        list->unsorted = slot;
        after = list->tail;
        break;
      }
    }
  }
  Link(list, slot, after, after == kNil ? list->head : nodes_[after].next);
  list->size++;
}

void Simulator::Link(List* list, uint32_t slot, uint32_t prev, uint32_t next) {
  nodes_[slot].prev = prev;
  nodes_[slot].next = next;
  (prev == kNil ? list->head : nodes_[prev].next) = slot;
  (next == kNil ? list->tail : nodes_[next].prev) = slot;
}

void Simulator::SortSuffix(List* list) {
  // Cut the suffix off, sort it on its own, then splice its nodes into the
  // prefix in one forward pass: O(prefix + k log k) for a k-node suffix,
  // where re-sorting the whole list would cost O(n log n) per dirty pop.
  scratch_.clear();
  for (uint32_t i = list->unsorted; i != kNil; i = nodes_[i].next) {
    scratch_.push_back({nodes_[i].at, nodes_[i].seq, i});
  }
  list->tail = nodes_[list->unsorted].prev;
  (list->tail == kNil ? list->head : nodes_[list->tail].next) = kNil;
  list->unsorted = kNil;
  std::sort(scratch_.begin(), scratch_.end(), Earlier<Key, Key>);
  uint32_t before = list->head;  // first prefix node later than the key
  for (const Key& k : scratch_) {
    while (before != kNil && Earlier(nodes_[before], k)) {
      before = nodes_[before].next;
    }
    Link(list, k.slot, before == kNil ? list->tail : nodes_[before].prev,
         before);
  }
}

bool Simulator::PopIfAtMost(SimTime limit, uint32_t* slot) {
  if (pending_ == 0) return false;

  List* found = nullptr;
  if (cal_size_ > 0) {
    const uint32_t shift = bucket_shift_;
    const uint64_t start = static_cast<uint64_t>(now_) >> shift;
    const size_t nbuckets = buckets_.size();
    for (uint64_t step = 0; step < nbuckets; ++step) {
      List& b = buckets_[(start + step) & bucket_mask_];
      if (b.head == kNil) continue;
      if (b.unsorted != kNil) SortSuffix(&b);
      // The bucket's minimum wins iff it belongs to the current lap of the
      // ring; a head from a later lap means this slot is empty for now and
      // the walk continues.
      if ((static_cast<uint64_t>(nodes_[b.head].at) >> shift) <=
          start + step) {
        found = &b;
        break;
      }
    }
    // Admission re-checks `at` against the advancing clock on every insert
    // and rebuild, so every bucketed entry sits within one rotation of
    // now_ and the walk above always finds the bucketed minimum. The scan
    // below is defensive only.
    assert(found != nullptr);
    if (found == nullptr) {
      for (List& b : buckets_) {
        if (b.head == kNil) continue;
        if (b.unsorted != kNil) SortSuffix(&b);
        if (found == nullptr ||
            Earlier(nodes_[b.head], nodes_[found->head])) {
          found = &b;
        }
      }
    }
  }
  if (overflow_.size > 0) {
    // Overflow can undercut the bucketed minimum: an entry parked beyond
    // the horizon long ago may be nearer than anything admitted since.
    if (overflow_.unsorted != kNil) SortSuffix(&overflow_);
    if (found == nullptr ||
        Earlier(nodes_[overflow_.head], nodes_[found->head])) {
      found = &overflow_;
    }
  }

  const uint32_t head = found->head;
  if (nodes_[head].at > limit) return false;
  *slot = head;
  found->head = nodes_[head].next;
  if (found->head == kNil) {
    *found = List{};
  } else {
    nodes_[found->head].prev = kNil;
    found->size--;
  }
  if (found != &overflow_) cal_size_--;
  pending_--;

  const size_t live = cal_size_ + overflow_.size;
  if (live > 0 &&
      ((live < buckets_.size() / 8 && buckets_.size() > kMinBuckets) ||
       ++ops_since_rebuild_ >= std::max(kResampleMinOps, live * 8))) {
    Rebuild();
  }
  return true;
}

uint32_t Simulator::SampleBucketShift() {
  // Width is ~2x the median gap between consecutive *distinct* pending
  // deadlines, so a couple of distinct instants share a bucket and walks
  // advance ~1 bucket per pop. Distinct values make the statistic immune
  // to the two shapes that poison count-based sampling: tie masses (an
  // epoch burst contributes one value, not thousands of zero gaps) and a
  // handful of far-future timers (two big gaps cannot move the median).
  // Whatever falls beyond the resulting rotation lands in the overflow
  // list, which near-back inserts keep cheap. The sort below is
  // bounded by kGeometrySampleMax (deeper queues are reservoir-sampled),
  // and rebuilds fire on occupancy doubling or every ~8x-pending pops, so
  // this costs a few comparisons per event with no deep-queue spikes.
  const size_t n = scratch_.size();
  if (n < 2) return bucket_shift_;
  scratch_times_.clear();
  if (n <= kGeometrySampleMax) {
    for (const Key& k : scratch_) scratch_times_.push_back(k.at);
  } else {
    // Deep queue: reservoir-sample the deadlines (Vitter's Algorithm R) so
    // the sort below is bounded. Gaps between consecutive *sampled* order
    // statistics average n/K true gaps each, so the median gap computed
    // from the sample is rescaled by K/n below before it sets the width.
    for (size_t i = 0; i < kGeometrySampleMax; ++i) {
      scratch_times_.push_back(scratch_[i].at);
    }
    for (size_t i = kGeometrySampleMax; i < n; ++i) {
      size_t j = static_cast<size_t>(geometry_rng_.Uniform(i + 1));
      if (j < kGeometrySampleMax) scratch_times_[j] = scratch_[i].at;
    }
  }
  std::sort(scratch_times_.begin(), scratch_times_.end());
  scratch_gaps_.clear();
  for (size_t i = 1; i < scratch_times_.size(); ++i) {
    SimTime d = scratch_times_[i] - scratch_times_[i - 1];
    if (d > 0) scratch_gaps_.push_back(d);
  }
  if (scratch_gaps_.empty()) return 0;  // every pending deadline ties
  auto mid = scratch_gaps_.begin() +
             static_cast<std::ptrdiff_t>(scratch_gaps_.size() / 2);
  std::nth_element(scratch_gaps_.begin(), mid, scratch_gaps_.end());
  // When the deadlines were sampled, a sampled gap spans ~n/sample true
  // gaps; rescale so the width still targets a couple of *distinct
  // pending instants* per bucket, not a couple of sampled ones (which
  // would make buckets ~n/sample times too wide in the deep-queue regime
  // the sampling protects).
  double scale = static_cast<double>(scratch_times_.size()) /
                 static_cast<double>(n);
  double width = 2.0 * static_cast<double>(*mid) * scale;
  uint32_t shift = 0;
  while (shift < kMaxBucketShift &&
         static_cast<double>(uint64_t{1} << (shift + 1)) <= width) {
    shift++;
  }
  return shift;
}

void Simulator::Rebuild() {
  // Drain everything (buckets and overflow), re-derive geometry from the
  // survivors, and re-admit. Triggered when occupancy drifts past the
  // doubling/eighth thresholds, so the O(n) cost amortizes against the
  // inserts/pops that caused the drift.
  scratch_.clear();
  auto drain = [this](List* list) {
    for (uint32_t i = list->head; i != kNil; i = nodes_[i].next) {
      scratch_.push_back({nodes_[i].at, nodes_[i].seq, i});
    }
    *list = List{};
  };
  for (List& b : buckets_) drain(&b);
  drain(&overflow_);
  cal_size_ = 0;
  ops_since_rebuild_ = 0;

  const size_t target = RingSizeFor(scratch_.size());
  if (target != buckets_.size()) {
    buckets_.resize(target);
    bucket_mask_ = target - 1;
  }
  bucket_shift_ = SampleBucketShift();
  for (const Key& k : scratch_) Place(k.slot);
}

void Simulator::Push(SimTime at, bool weak, EventFn fn) {
  if (at < now_) at = now_;
  const uint32_t slot = slots_.Park(std::move(fn));
  if (slot >= nodes_.size()) GrowTo(slot + size_t{1});
  Node& node = nodes_[slot];
  node.at = at;
  node.seq = next_seq_++;
  node.weak = weak;
  if (!weak) strong_pending_++;
  pending_++;
  assert(slots_.in_use() == pending_);
  Place(slot);
  if (cal_size_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
    Rebuild();
  }
}

void Simulator::RunSlot(uint32_t slot) {
  const Node& node = nodes_[slot];
  assert(node.at >= now_);
  now_ = node.at;
  processed_++;
  if (!node.weak) strong_pending_--;
  // Take (move out + free) before running: the body may schedule new
  // events, which can recycle this slot (and grow nodes_).
  EventFn fn = slots_.Take(slot);
  fn();
}

void Simulator::Schedule(SimTime delay, EventFn fn) {
  if (delay < 0) delay = 0;
  Push(now_ + delay, /*weak=*/false, std::move(fn));
}

void Simulator::ScheduleAt(SimTime at, EventFn fn) {
  Push(at, /*weak=*/false, std::move(fn));
}

void Simulator::ScheduleWeak(SimTime delay, EventFn fn) {
  if (delay < 0) delay = 0;
  Push(now_ + delay, /*weak=*/true, std::move(fn));
}

void Simulator::RunUntil(SimTime until) {
  uint32_t slot;
  while (PopIfAtMost(until, &slot)) RunSlot(slot);
  if (now_ < until) now_ = until;
}

void Simulator::RunUntilIdle() {
  uint32_t slot;
  while (strong_pending_ > 0 &&
         PopIfAtMost(std::numeric_limits<SimTime>::max(), &slot)) {
    RunSlot(slot);
  }
}

}  // namespace lion
