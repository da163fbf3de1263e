// Steady-state allocation ceilings of the transaction path. Built as its own
// executable (see CMakeLists.txt): it replaces the global operator new with
// a counting one, which must not leak into the main test binary.
//
// Each test warms the engine up (context pool, worker queues, event slots,
// replication buffers reach their high-water marks), then counts the heap
// allocations of a second, identical round of transactions. The
// transactions themselves are built before the counting window opens.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

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
    op.write_value = id;
    txn->ops().push_back(op);
  }
  return txn;
}

class EngineAllocTest : public ::testing::Test {
 protected:
  // The reference heap scheduler keeps all pending events in one vector.
  // The default calendar queue re-buckets as occupancy swings, which this
  // test's bursts of concurrent runs provoke; that is scheduler geometry,
  // not the transaction path under test.
  EngineAllocTest()
      : sim_(1, SimConfig{SchedulerKind::kHeap}),
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

}  // namespace
}  // namespace lion
