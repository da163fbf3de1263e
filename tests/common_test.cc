// Unit tests for src/common: Status, Rng, Histogram, MoveFn (small-buffer
// optimization).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/move_fn.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace lion {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Internal().IsInternal());
  EXPECT_FALSE(Status::NotFound().ok());
}

TEST(StatusTest, ToStringIncludesMessage) {
  Status s = Status::InvalidArgument("validation failed");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: validation failed");
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.Next64() == b.Next64()) same++;
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i)
    if (rng.Bernoulli(0.3)) hits++;
  double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, Next64TakesTheHighWordFirst) {
  Rng a(1), b(1);
  const uint64_t hi = b.Next();
  const uint64_t lo = b.Next();
  EXPECT_EQ(a.Next64(), (hi << 32) | lo);
  EXPECT_EQ(a.StateFingerprint(), b.StateFingerprint());
}

// Seed 1's first draws of each helper. Every fixed-seed digest and figure
// is built on this stream, so neither the compiler nor where the draws are
// defined may change it.
TEST(RngTest, SeedOneDrawsArePinned) {
  {
    Rng rng(1);
    EXPECT_EQ(rng.Next(), 1999276887u);
    EXPECT_EQ(rng.Next(), 1555755580u);
    EXPECT_EQ(rng.Next(), 3114131080u);
  }
  {
    Rng rng(1);
    EXPECT_EQ(rng.Next64(), 0x772a8b575cbaf23cull);
    EXPECT_EQ(rng.Next64(), 0xb99dde8856714c15ull);
    EXPECT_EQ(rng.Next64(), 0x214f06c0f0c8b846ull);
  }
  {
    Rng rng(1);
    EXPECT_EQ(rng.Uniform(1000), 132u);
    EXPECT_EQ(rng.Uniform(1000), 301u);
    EXPECT_EQ(rng.Uniform(1000), 414u);
  }
  {
    Rng rng(1);
    EXPECT_EQ(rng.UniformRange(-3, 3), 1);
    EXPECT_EQ(rng.UniformRange(-3, 3), -1);
    EXPECT_EQ(rng.UniformRange(-3, 3), -2);
  }
  {
    Rng rng(1);
    EXPECT_EQ(rng.NextDouble(), 0.46549292444251478);
    EXPECT_EQ(rng.NextDouble(), 0.36222757305949926);
    EXPECT_EQ(rng.NextDouble(), 0.72506514377892017);
  }
  {
    Rng rng(1);
    const bool want[] = {true, true, false, true, true, false, true, false};
    for (bool w : want) EXPECT_EQ(rng.Bernoulli(0.5), w);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// --- Histogram ----------------------------------------------------------------

TEST(HistogramTest, EmptyReturnsZeros) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1234);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), 1234);
  EXPECT_EQ(h.Max(), 1234);
  EXPECT_NEAR(h.Percentile(0.5), 1234, 1234 * 0.07);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.Record(static_cast<int64_t>(rng.Uniform(1000000)));
  int64_t p10 = h.Percentile(0.10);
  int64_t p50 = h.Percentile(0.50);
  int64_t p95 = h.Percentile(0.95);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p95);
  // Uniform distribution: p50 near 500k within bucket error.
  EXPECT_NEAR(p50, 500000, 60000);
  EXPECT_NEAR(p95, 950000, 90000);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Count(), 1u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  int64_t big = int64_t{1} << 40;
  h.Record(big);
  EXPECT_EQ(h.Max(), big);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), static_cast<double>(big),
              static_cast<double>(big) * 0.07);
}

// --- MoveFn -----------------------------------------------------------------

// Instance-counting functor used to verify that every target constructed
// inside a MoveFn (including intermediates created by relocation) is
// destroyed exactly once. Small enough for the inline buffer.
struct Counted {
  explicit Counted(int* live) : live(live) { ++*live; }
  Counted(const Counted& o) : live(o.live) { ++*live; }
  Counted(Counted&& o) noexcept : live(o.live) { ++*live; }
  ~Counted() { --*live; }
  int operator()() const { return 7; }
  int* live;
};

TEST(MoveFnTest, SmallTargetStaysInline) {
  int x = 5;
  MoveFn<int()> fn([x]() { return x + 1; });
  EXPECT_TRUE(fn.uses_inline_storage());
  EXPECT_EQ(fn(), 6);
}

TEST(MoveFnTest, FatTargetFallsBackToHeap) {
  unsigned char blob[MoveFn<int()>::kInlineBytes + 16];
  std::memset(blob, 3, sizeof(blob));
  MoveFn<int()> fn([blob]() { return static_cast<int>(blob[0]); });
  EXPECT_FALSE(fn.uses_inline_storage());
  EXPECT_EQ(fn(), 3);
  // A 16-byte buffer spills a closure that the default buffer holds inline.
  unsigned char mid[MoveFn<int(), 16>::kInlineBytes + 8];
  std::memset(mid, 4, sizeof(mid));
  auto mid_fn = [mid]() { return static_cast<int>(mid[0]); };
  static_assert(MoveFn<int()>::kFitsInline<decltype(mid_fn)>);
  MoveFn<int(), 16> small_buffer(mid_fn);
  EXPECT_FALSE(small_buffer.uses_inline_storage());
  EXPECT_EQ(small_buffer(), 4);
}

TEST(MoveFnTest, MoveTransfersInlineTarget) {
  auto owned = std::make_unique<int>(11);
  MoveFn<int()> a([p = std::move(owned)]() { return *p; });
  ASSERT_TRUE(a.uses_inline_storage());
  MoveFn<int()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(b(), 11);
}

TEST(MoveFnTest, MoveTransfersHeapTarget) {
  unsigned char blob[MoveFn<int()>::kInlineBytes + 16] = {42};
  MoveFn<int()> a([blob]() { return static_cast<int>(blob[0]); });
  ASSERT_FALSE(a.uses_inline_storage());
  MoveFn<int()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(b(), 42);
}

TEST(MoveFnTest, MoveAssignmentDestroysPreviousTarget) {
  int live_a = 0, live_b = 0;
  MoveFn<int()> fn{Counted(&live_a)};
  EXPECT_EQ(live_a, 1);
  fn = MoveFn<int()>(Counted(&live_b));
  EXPECT_EQ(live_a, 0);  // old target destroyed by the assignment
  EXPECT_EQ(live_b, 1);
  EXPECT_EQ(fn(), 7);
}

TEST(MoveFnTest, DestructionCountsBalanceForInlineTarget) {
  int live = 0;
  {
    MoveFn<int()> a{Counted(&live)};
    EXPECT_TRUE(a.uses_inline_storage());
    EXPECT_GE(live, 1);
    MoveFn<int()> b = std::move(a);
    MoveFn<int()> c;
    c = std::move(b);
    EXPECT_EQ(c(), 7);
    EXPECT_EQ(live, 1);  // exactly the one target survives the moves
  }
  EXPECT_EQ(live, 0);
}

TEST(MoveFnTest, DestructionCountsBalanceForHeapTarget) {
  int live = 0;
  struct FatCounted : Counted {
    using Counted::Counted;
    unsigned char pad[MoveFn<int()>::kInlineBytes] = {};
  };
  {
    MoveFn<int()> a{FatCounted(&live)};
    EXPECT_FALSE(a.uses_inline_storage());
    MoveFn<int()> b = std::move(a);
    EXPECT_EQ(b(), 7);
    EXPECT_EQ(live, 1);  // heap relocation transfers the pointer, no copies
  }
  EXPECT_EQ(live, 0);
}

TEST(MoveFnTest, EmptyStates) {
  MoveFn<void()> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_FALSE(empty.uses_inline_storage());
  MoveFn<void()> null_init(nullptr);
  EXPECT_FALSE(static_cast<bool>(null_init));
}

TEST(MoveFnTest, ArgumentsAndReturnForwarded) {
  MoveFn<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
  MoveFn<std::unique_ptr<int>(std::unique_ptr<int>)> pass(
      [](std::unique_ptr<int> p) { return p; });
  auto out = pass(std::make_unique<int>(9));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 9);
}

TEST(MoveFnTest, FitsInlineMatchesStorage) {
  auto small = [x = 1]() { return x; };
  unsigned char blob[MoveFn<int()>::kInlineBytes + 1] = {};
  auto fat = [blob]() { return static_cast<int>(blob[0]); };
  static_assert(MoveFn<int()>::kFitsInline<decltype(small)>);
  static_assert(!MoveFn<int()>::kFitsInline<decltype(fat)>);
  EXPECT_TRUE(MoveFn<int()>(small).uses_inline_storage());
  EXPECT_FALSE(MoveFn<int()>(fat).uses_inline_storage());

  // The 16-byte buffer of TxnDoneFn: two pointers fit, a third spills.
  using Small = MoveFn<int(), 16>;
  static_assert(Small::kInlineBytes == 16 && sizeof(Small) == 32);
  int a = 1, b = 2, c = 3;
  auto two = [&a, &b]() { return a + b; };
  auto three = [&a, &b, &c]() { return a + b + c; };
  static_assert(Small::kFitsInline<decltype(two)>);
  static_assert(!Small::kFitsInline<decltype(three)>);
  EXPECT_TRUE(Small(two).uses_inline_storage());
  EXPECT_FALSE(Small(three).uses_inline_storage());
  EXPECT_EQ(Small(three)(), 6);
}

// --- RingQueue -----------------------------------------------------------------

TEST(RingQueueTest, FifoAcrossWrapAndGrowth) {
  RingQueue<std::unique_ptr<int>> q;
  EXPECT_TRUE(q.empty());
  int next_in = 0, next_out = 0;
  // Interleave pushes and pops so the head wraps before each growth step.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5 + 4 * round; ++i) {
      q.push_back(std::make_unique<int>(next_in++));
    }
    for (int i = 0; i < 3 + round; ++i) {
      EXPECT_EQ(*q.pop_front(), next_out++);
    }
  }
  EXPECT_EQ(q.size(), static_cast<size_t>(next_in - next_out));
  while (!q.empty()) EXPECT_EQ(*q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

}  // namespace
}  // namespace lion
