#include "protocols/lotus.h"

#include "harness/registry.h"

namespace lion {

LotusProtocol::LotusProtocol(Cluster* cluster, MetricsCollector* metrics)
    : BatchProtocol(cluster, metrics),
      granule_writer_(cluster->num_partitions() * kGranulesPerPartition, 0),
      granule_readers_(cluster->num_partitions() * kGranulesPerPartition, 0),
      records_per_partition_(cluster->config().records_per_partition) {}

int LotusProtocol::GranuleOf(PartitionId pid, Key key) const {
  uint64_t chunk;
  if (key < records_per_partition_) {
    // Flat key space (YCSB): contiguous key-range chunks.
    chunk = (key * kGranulesPerPartition) / (records_per_partition_ + 1);
  } else {
    // Structured key space (table tags in high bits, TPC-C): hash the full
    // key so different tables do not alias onto the same granules.
    chunk = (key * 0x9E3779B97F4A7C15ULL) >> 54;  // top 10 bits
  }
  chunk %= kGranulesPerPartition;
  return pid * kGranulesPerPartition + static_cast<int>(chunk);
}

void LotusProtocol::ExecuteBatch(std::vector<Item> batch) {
  // Granule locks persist to the end of the epoch: schedule one release.
  if (!release_scheduled_) {
    release_scheduled_ = true;
    cluster_->replication().OnEpochEnd([this]() {
      std::fill(granule_writer_.begin(), granule_writer_.end(), 0);
      std::fill(granule_readers_.begin(), granule_readers_.end(), 0);
      release_scheduled_ = false;
    });
  }

  for (auto& item : batch) {
    Transaction* txn = item.txn.get();

    // Acquire every touched granule or abort to the next epoch (locks are
    // only released at epoch boundaries, so blocking would deadlock).
    bool conflict = false;
    for (const auto& op : txn->ops()) {
      if (op.is_insert) continue;  // unique-key appends conflict with nobody
      int g = GranuleOf(op.partition, op.key);
      TxnId writer = granule_writer_[g];
      if (writer != 0 && writer != txn->id()) {
        conflict = true;  // any access collides with a foreign writer
        break;
      }
      if (op.type == OpType::kWrite && granule_readers_[g] > 0) {
        conflict = true;  // writes exclude concurrent readers
        break;
      }
    }
    if (conflict) {
      granule_conflicts_++;
      Requeue(std::move(item));
      continue;
    }
    for (const auto& op : txn->ops()) {
      if (op.is_insert) continue;
      int g = GranuleOf(op.partition, op.key);
      if (op.type == OpType::kWrite) {
        granule_writer_[g] = txn->id();
      } else {
        granule_readers_[g]++;
      }
    }

    NodeId coord = AssignCoordinator(txn);
    SimTime start = cluster_->sim()->Now();
    // Execution under granule locks; writes apply directly (no validation
    // needed) and commit+replication proceed asynchronously at epoch end.
    ReadPhase(txn, coord,
              [this, item = std::move(item), coord, start]() mutable {
                item.txn->breakdown().execution +=
                    cluster_->sim()->Now() - start;
                ApplyAndCommit(std::move(item), coord);
              });
  }
}


// Self-registration: resolving "Lotus" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterLotusProtocol(
    "Lotus", ExecutionMode::kBatch,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<LotusProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
