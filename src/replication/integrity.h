// Post-run integrity invariants for runs with injected faults.
//
// After a chaos schedule has played out and the simulator has drained, the
// checker walks the surviving replica set and asserts the bookkeeping that
// every fault path must preserve: exactly one live primary per replica
// group, no blocked partition that has outlived its reconfiguration, no
// record lock left held, LSN monotonicity, and — when a CommitLedger
// recorded the run — that every committed transaction's effects are present
// in the authoritative stores (the stress-then-verify idiom).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "txn/transaction.h"

namespace lion {

class Cluster;
class FailureInjector;

/// Records committed write effects: how many committed writes each
/// (partition, key) pair received. The experiment harness wires one into
/// MetricsCollector's commit listener for every run with a chaos schedule.
class CommitLedger {
 public:
  explicit CommitLedger(int num_partitions)
      : writes_(static_cast<size_t>(num_partitions)) {}

  /// Counts every write op of a committed transaction.
  void Record(const Transaction& txn) {
    for (const Operation& op : txn.ops()) {
      if (op.type != OpType::kWrite) continue;
      writes_[static_cast<size_t>(op.partition)][op.key]++;
      writes_recorded_++;
    }
  }

  uint64_t writes_recorded() const { return writes_recorded_; }

  const std::unordered_map<Key, uint64_t>& writes(PartitionId pid) const {
    return writes_[static_cast<size_t>(pid)];
  }

 private:
  std::vector<std::unordered_map<Key, uint64_t>> writes_;
  uint64_t writes_recorded_ = 0;
};

struct IntegrityReport {
  std::vector<std::string> violations;
  uint64_t partitions_checked = 0;
  uint64_t committed_writes_checked = 0;
  /// Ledger writes re-verified against the recovery log's reconstruction
  /// (snapshot + suffix + lost); 0 when no recovery log is attached.
  uint64_t log_writes_checked = 0;
  bool ok() const { return violations.empty(); }
};

/// Walks every replica group and store. `injector` (may be null) supplies
/// node liveness and the unavailable-partition list; `ledger` (may be null)
/// supplies the committed write-sets to verify against the stores. Call
/// after the simulator has drained (RunUntilIdle), so in-flight failovers
/// and reconfigurations have settled.
IntegrityReport CheckClusterIntegrity(Cluster* cluster,
                                      const FailureInjector* injector,
                                      const CommitLedger* ledger);

}  // namespace lion
