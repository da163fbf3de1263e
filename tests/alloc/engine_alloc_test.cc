// Steady-state allocation ceilings of the transaction path and the event
// queue. Built as its own executable (see CMakeLists.txt): it replaces the
// global operator new with a counting one, which must not leak into the main
// test binary.
//
// Each engine test warms the engine up (context pool, worker queues, event
// slots, replication buffers reach their high-water marks), then counts the
// heap allocations of a second, identical round of transactions. The
// transactions themselves are built before the counting window opens.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "core/planner.h"
#include "metrics/metrics.h"
#include "protocols/protocol.h"
#include "replication/cluster.h"
#include "sim/simulator.h"
#include "txn/transaction.h"
#include "txn/two_phase_engine.h"

namespace {
uint64_t g_allocs = 0;
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see free() of a pointer from operator new
// in this file's own call sites and warn.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lion {
namespace {

ClusterConfig Config() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.partitions_per_node = 2;
  cfg.records_per_partition = 1000;
  cfg.record_bytes = 100;
  return cfg;
}

// A write on every partition in `parts`. Keys are preloaded rows (a write
// to an absent key would insert it, which allocates), and transactions that
// run concurrently use distinct keys, so nothing aborts.
TxnPtr WriteTxn(TxnId id, const std::vector<PartitionId>& parts) {
  auto txn = std::make_unique<Transaction>(id, 0);
  for (PartitionId pid : parts) {
    Operation op;
    op.partition = pid;
    op.key = id % Config().records_per_partition;
    op.type = OpType::kWrite;
    txn->ops().push_back(op);
  }
  return txn;
}

class EngineAllocTest : public ::testing::Test {
 protected:
  EngineAllocTest()
      : sim_(1),
        cluster_(&sim_, Config()),
        engine_(&cluster_, &metrics_) {
    cluster_.Start();
  }

  // Runs `batches` rounds of `per_batch` concurrent transactions on `parts`
  // from node 0 and returns the heap allocations made while they ran.
  uint64_t RunRound(const std::vector<PartitionId>& parts, int batches,
                    int per_batch, const TwoPhaseEngine::Options& opts) {
    std::vector<TxnPtr> txns;
    std::vector<std::vector<PartitionId>> part_lists;
    for (int i = 0; i < batches * per_batch; ++i) {
      txns.push_back(WriteTxn(++next_id_, parts));
      part_lists.push_back(txns.back()->Partitions());
    }
    int committed = 0;
    const uint64_t before = g_allocs;
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < per_batch; ++i) {
        size_t k = static_cast<size_t>(b * per_batch + i);
        engine_.Run(txns[k].get(), part_lists[k], 0, opts,
                    [&committed](bool ok) { committed += ok ? 1 : 0; });
      }
      sim_.RunUntilIdle();
    }
    const uint64_t allocs = g_allocs - before;
    EXPECT_EQ(committed, batches * per_batch);
    return allocs;
  }

  // Warm-up round, then the counted one; returns allocations per txn.
  double SteadyStateAllocsPerTxn(const std::vector<PartitionId>& parts,
                                 const TwoPhaseEngine::Options& opts) {
    constexpr int kBatches = 20, kPerBatch = 16;
    RunRound(parts, kBatches, kPerBatch, opts);
    uint64_t allocs = RunRound(parts, kBatches, kPerBatch, opts);
    return static_cast<double>(allocs) / (kBatches * kPerBatch);
  }

  Simulator sim_;
  Cluster cluster_;
  MetricsCollector metrics_;
  TwoPhaseEngine engine_;
  TxnId next_id_ = 0;
};

// The ceiling is per transaction and covers the whole simulated path the
// engine drives: worker pools, network, event queue, OCC and replication
// log appends. Growth of append-only run statistics (the network's
// per-window byte counters) is all that may still allocate.
constexpr double kMaxAllocsPerTxn = 0.02;

TEST_F(EngineAllocTest, SingleNodeTxnsAllocateNothing) {
  // Partitions 0 and 3 both have their primary on node 0.
  double per_txn = SteadyStateAllocsPerTxn({0, 3}, TwoPhaseEngine::Options{});
  EXPECT_LE(per_txn, kMaxAllocsPerTxn);
}

TEST_F(EngineAllocTest, DistributedTxnsAllocateNothing) {
  // Primaries on nodes 0, 1 and 2: full execute / prepare (with synchronous
  // secondary replication) / commit rounds.
  double per_txn =
      SteadyStateAllocsPerTxn({0, 1, 2}, TwoPhaseEngine::Options{});
  EXPECT_LE(per_txn, kMaxAllocsPerTxn);
  EXPECT_LE(engine_.contexts_created(), 16u);  // one per concurrent run
}

TEST_F(EngineAllocTest, GroupCommitTxnsAllocateNothing) {
  TwoPhaseEngine::Options opts;
  opts.group_commit_visibility = true;
  double per_txn = SteadyStateAllocsPerTxn({0, 1}, opts);
  EXPECT_LE(per_txn, kMaxAllocsPerTxn);
}

// Lion's workload analyzer records every routed transaction's partition set;
// once its history holds B of them, recording one more only overwrites.
TEST_F(EngineAllocTest, PlannerHistoryAllocatesNothingOnceFull) {
  Planner planner(&cluster_, PlannerConfig{});
  const std::vector<PartitionId> parts = {0, 3, 4};
  // Fill the analyzer's 20,000-transaction history B.
  for (int i = 0; i < 20000; ++i) planner.RecordTxn(parts, 0);
  const uint64_t before = g_allocs;
  for (int i = 0; i < 10000; ++i) planner.RecordTxn(parts, 0);
  EXPECT_EQ(g_allocs - before, 0u);
}

// Exposes the protocol-side completion for inspection.
class ProbeProtocol : public Protocol {
 public:
  using Protocol::CommitOrRetry;
  using Protocol::Protocol;
  std::string name() const override { return "probe"; }

 protected:
  void SubmitTxn(TxnPtr, TxnDoneFn) override {}
};

TEST_F(EngineAllocTest, CommitOrRetryCompletionIsInline) {
  ProbeProtocol probe(&cluster_, &metrics_);
  TxnPtr txn = WriteTxn(++next_id_, {0});
  int returned = 0;
  const uint64_t before = g_allocs;
  TwoPhaseEngine::DoneFn done = probe.CommitOrRetry(
      std::move(txn), [&returned](TxnPtr) { returned++; });
  TwoPhaseEngine::DoneFn moved = std::move(done);
  const uint64_t allocs = g_allocs - before;
  EXPECT_TRUE(moved.uses_inline_storage());
  EXPECT_EQ(allocs, 0u);
  moved(true);
  EXPECT_EQ(returned, 1);
}

TEST_F(EngineAllocTest, UnblockedWaitRunsWithoutTypeErasure) {
  // A closure far too big for any small buffer: the free partition's fast
  // path must call it in place rather than wrap it.
  unsigned char blob[4 * MoveFn<void()>::kInlineBytes] = {1};
  int ran = 0;
  const uint64_t before = g_allocs;
  cluster_.remaster().WaitUntilAvailable(0, [&ran, blob]() { ran += blob[0]; });
  const uint64_t allocs = g_allocs - before;
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(allocs, 0u);
}

// An event that re-arms itself `left` more times at a random delay, so a
// set of them holds the pending depth steady.
struct Rearm {
  Simulator* sim;
  std::mt19937_64* rng;
  uint64_t* ran;
  uint64_t left;

  void Arm() {
    sim->Schedule(1000 + static_cast<SimTime>((*rng)() % 50000),
                  [this]() { Fire(); });
  }
  void Fire() {
    ++*ran;
    if (left == 0) return;
    --left;
    Arm();
  }
};

// The event queue on its own. Each cycle first holds ~6000 events pending
// for ~70k pops (no new high-water mark, but the pop cadence re-derives the
// geometry and wants a larger ring), then swings the pending depth from
// tens to ~8k and back, twice, with ties, far deadlines that park in the
// overflow list, and events exactly on RunUntil boundaries. The first cycle
// takes every queue buffer to its high-water mark; the identical second
// cycle must not allocate at all. Only scheduling past a high-water mark
// may allocate, so no RunUntil/RunUntilIdle call may allocate even in the
// first cycle: rebuilds, sorts and re-armed events stay within reserved
// capacity.
TEST(SchedulerAllocTest, OccupancySwingsAllocateNothingAfterWarmUp) {
  Simulator sim(1);
  uint64_t scheduled = 0, ran = 0, run_allocs = 0;
  size_t deepest = 0;
  auto run = [&](SimTime until) {
    const uint64_t before = g_allocs;
    if (until < 0) {
      sim.RunUntilIdle();
    } else {
      sim.RunUntil(until);
    }
    run_allocs += g_allocs - before;
  };
  std::vector<Rearm> hold(6000, Rearm{&sim, nullptr, &ran, 0});
  auto cycle = [&]() {
    std::mt19937_64 rng(7);  // the same draws every cycle
    for (Rearm& r : hold) {
      r.rng = &rng;
      r.left = 11;
      r.Arm();
    }
    scheduled += hold.size() * 12;
    run(-1);

    struct Phase {
      size_t fill_to;
      SimTime run_for;
    };
    for (Phase phase : {Phase{32, 500 * kMicrosecond},
                        Phase{8192, 1 * kMillisecond},
                        Phase{64, 3 * kSecond},
                        Phase{4096, 100 * kMicrosecond},
                        Phase{8192, 2 * kMillisecond},
                        Phase{16, 3 * kSecond}}) {
      while (sim.pending_events() < phase.fill_to) {
        SimTime delay = 0;  // a tie with every other event at Now()
        switch (rng() % 4) {
          case 0: break;
          case 1: delay = static_cast<SimTime>(rng() % 1000); break;
          case 2: delay = static_cast<SimTime>(rng() % kMillisecond); break;
          default: delay = kSecond + static_cast<SimTime>(rng() % kSecond);
        }
        sim.Schedule(delay, [&ran]() { ran++; });
        scheduled++;
      }
      deepest = std::max(deepest, sim.pending_events());
      const SimTime boundary = sim.Now() + phase.run_for;
      sim.ScheduleAt(boundary, [&ran]() { ran++; });
      scheduled++;
      run(boundary);
    }
    run(-1);
  };

  cycle();
  ASSERT_EQ(sim.pending_events(), 0u);
  ASSERT_GE(deepest, 8192u);
  EXPECT_EQ(run_allocs, 0u);
  const uint64_t before = g_allocs;
  cycle();
  const uint64_t allocs = g_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(ran, scheduled);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace lion
