// Transaction representation shared by every protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"

namespace lion {

enum class OpType : uint8_t { kRead, kWrite };

/// One read or write in a transaction's logical plan, plus the version its
/// read observed (OCC's runtime state). A write carries no value: records
/// are versions, and a commit installs the next one. Fields are ordered
/// widest first so an operation packs into 24 bytes: a whole epoch of
/// transactions is in flight in batch mode, so this size sets much of the
/// simulator's memory.
struct Operation {
  Key key = 0;
  /// Version observed by the read (Occ::ReadOps); reset on restart.
  /// Validation compares it for reads only, and an insert, whose key is new,
  /// keeps 0.
  Version read_version = 0;
  PartitionId partition = kInvalidPartition;
  OpType type = OpType::kRead;
  /// Write of a brand-new unique key (e.g. TPC-C ORDER/ORDER-LINE rows).
  /// Inserts cannot conflict with other transactions' accesses, so granule
  /// lockers skip them.
  bool is_insert = false;
};
static_assert(sizeof(Operation) == 24, "Operation should pack into 24 bytes");

/// How the transaction ultimately executed — the paper's three cases
/// (Sec. III): directly on one node, on one node after remastering, or as a
/// regular distributed transaction.
enum class ExecClass : uint8_t { kSingleNode, kRemastered, kDistributed };

/// Wall-time attribution buckets matching Fig. 14b.
struct PhaseBreakdown {
  SimTime scheduling = 0;   // queueing before first execution
  SimTime execution = 0;    // read/write processing
  SimTime commit = 0;       // prepare + commit coordination
  SimTime replication = 0;  // secondary sync + group-commit visibility wait
  SimTime other = 0;

  SimTime Total() const {
    return scheduling + execution + commit + replication + other;
  }
  void Add(const PhaseBreakdown& o) {
    scheduling += o.scheduling;
    execution += o.execution;
    commit += o.commit;
    replication += o.replication;
    other += o.other;
  }
};

/// A transaction: the workload generator fills in `ops` (the paper's
/// TxnParts metadata is the distinct partition list derived from them) and
/// protocols drive it to commit, possibly restarting it on OCC aborts.
class Transaction {
 public:
  Transaction(TxnId id, SimTime created_at) : id_(id), created_at_(created_at) {}

  TxnId id() const { return id_; }
  SimTime created_at() const { return created_at_; }

  std::vector<Operation>& ops() { return ops_; }
  const std::vector<Operation>& ops() const { return ops_; }

  /// Distinct partitions touched, ascending (the TxnParts of TxnMeta).
  std::vector<PartitionId> Partitions() const {
    std::vector<PartitionId> parts;
    PartitionsInto(&parts);
    return parts;
  }

  /// Partitions() into a caller-owned buffer: a reused buffer keeps its
  /// capacity, so hot submission paths compute the list without allocating.
  void PartitionsInto(std::vector<PartitionId>* parts) const {
    parts->clear();
    parts->reserve(ops_.size());
    for (const auto& op : ops_) parts->push_back(op.partition);
    std::sort(parts->begin(), parts->end());
    parts->erase(std::unique(parts->begin(), parts->end()), parts->end());
  }

  /// Number of operations on `pid`; with `type`, only those of that type.
  int CountOps(PartitionId pid,
               std::optional<OpType> type = std::nullopt) const {
    int n = 0;
    for (const auto& op : ops_)
      if (op.partition == pid && (!type || op.type == *type)) n++;
    return n;
  }

  /// Additional coordinator-side compute (TPC-C business logic).
  SimTime extra_compute() const { return extra_compute_; }
  void set_extra_compute(SimTime t) { extra_compute_ = t; }

  /// Clears runtime state so the transaction can re-execute after an abort.
  void ResetForRestart() {
    for (auto& op : ops_) op.read_version = 0;
    restarts_++;
  }

  int restarts() const { return restarts_; }

  /// Times this transaction was deferred because a touched partition was
  /// unavailable (down primary or partitioned away). Unlike `restarts`,
  /// this survives ResetForRestart so the degradation path's retry budget
  /// cannot be reset by an interleaved OCC abort.
  int unavailable_retries() const { return unavailable_retries_; }
  void BumpUnavailableRetries() { unavailable_retries_++; }

  NodeId coordinator() const { return coordinator_; }
  void set_coordinator(NodeId n) { coordinator_ = n; }

  ExecClass exec_class() const { return exec_class_; }
  void set_exec_class(ExecClass c) { exec_class_ = c; }

  PhaseBreakdown& breakdown() { return breakdown_; }
  const PhaseBreakdown& breakdown() const { return breakdown_; }

 private:
  TxnId id_;
  SimTime created_at_;
  SimTime extra_compute_ = 0;
  std::vector<Operation> ops_;
  int restarts_ = 0;
  int unavailable_retries_ = 0;
  NodeId coordinator_ = kInvalidNode;
  ExecClass exec_class_ = ExecClass::kSingleNode;
  PhaseBreakdown breakdown_;
};

using TxnPtr = std::unique_ptr<Transaction>;

}  // namespace lion
