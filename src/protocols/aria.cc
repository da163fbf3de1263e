#include "protocols/aria.h"

#include "protocols/batch_util.h"

#include "harness/registry.h"

namespace lion {

namespace {
// Mixes (partition, key) into a reservation-table slot. Both inputs get a
// multiplicative hash: workload key spaces embed table tags in high bits
// (TPC-C), so plain shifts/XORs alias across partitions.
uint64_t ResKey(PartitionId pid, Key key) {
  uint64_t h = key * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<uint64_t>(static_cast<uint32_t>(pid)) * 0xC2B2AE3D27D4EB4FULL;
  return h;
}
}  // namespace

struct AriaProtocol::BatchState {
  std::vector<Item> items;
  // key -> lowest reserving txn id (write reservations).
  std::unordered_map<uint64_t, TxnId> write_res;
  int pending = 0;  // items still in execute+reserve
};

AriaProtocol::AriaProtocol(Cluster* cluster, MetricsCollector* metrics)
    : BatchProtocol(cluster, metrics) {}

void AriaProtocol::ExecuteBatch(std::vector<Item> batch) {
  auto state = std::make_shared<BatchState>();
  state->items = std::move(batch);
  state->pending = static_cast<int>(state->items.size());

  for (size_t i = 0; i < state->items.size(); ++i) {
    Transaction* txn = state->items[i].txn.get();
    NodeId coord = AssignCoordinator(txn);
    SimTime start = cluster_->sim()->Now();
    // Execution phase: snapshot reads, fully parallel, no coordination.
    ReadPhase(txn, coord, [this, state, i, txn, start]() {
      txn->breakdown().execution += cluster_->sim()->Now() - start;
      ReservePhase(state, i);
    });
  }
}

void AriaProtocol::ReservePhase(const std::shared_ptr<BatchState>& state,
                                size_t index) {
  // Reservation: one message per remote participant carrying the write set;
  // the reservation table keeps the smallest txn id per key.
  Transaction* txn = state->items[index].txn.get();
  NodeId coord = txn->coordinator();
  const ClusterConfig& cfg = cluster_->config();

  const std::vector<PartitionId>& parts = PartitionsOf(*txn);
  auto reserved = std::make_shared<batch_util::Join>(
      parts.size(), [this, state]() {
        if (--state->pending == 0) CommitPhase(state);
      });
  for (PartitionId pid : parts) {
    int writes = txn->CountOps(pid, OpType::kWrite);
    SimTime cost = writes * cfg.validation_cost_per_op;
    batch_util::AtPrimary(
        cluster_, coord, pid,
        {cost, cost,
         MessageSizes::kHeader +
             static_cast<uint64_t>(writes) * MessageSizes::kOpRequest,
         0},
        [state, txn, pid]() {
          for (const auto& op : txn->ops()) {
            if (op.partition != pid || op.type != OpType::kWrite) continue;
            if (op.is_insert) continue;  // unique keys need no reservation
            uint64_t k = ResKey(pid, op.key);
            auto it = state->write_res.find(k);
            if (it == state->write_res.end() || txn->id() < it->second) {
              state->write_res[k] = txn->id();
            }
          }
        },
        [reserved]() { reserved->Arrive(); });
  }
}

void AriaProtocol::CommitPhase(const std::shared_ptr<BatchState>& state) {
  // Deterministic commit check with Aria's reordering: write-write
  // conflicts commit in transaction-id order (blind writes serialize), so
  // only read-after-write hazards abort — a transaction that read a key a
  // smaller transaction write-reserved re-executes next batch. (The paper
  // notes this reordering costs Aria ~20% extra latency, Fig. 14.)
  for (size_t i = 0; i < state->items.size(); ++i) {
    Item& item = state->items[i];
    Transaction* txn = item.txn.get();
    bool abort = false;
    for (const auto& op : txn->ops()) {
      uint64_t k = ResKey(op.partition, op.key);
      auto it = state->write_res.find(k);
      if (it == state->write_res.end()) continue;
      if (op.type == OpType::kRead && it->second < txn->id()) abort = true;
      if (abort) break;
    }
    if (abort) {
      reservation_aborts_++;
      Requeue(std::move(item));
      continue;
    }
    NodeId coord = txn->coordinator();
    ApplyAndCommit(std::move(item), coord);
  }
}


// Self-registration: resolving "Aria" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterAriaProtocol(
    "Aria", ExecutionMode::kBatch,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<AriaProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
