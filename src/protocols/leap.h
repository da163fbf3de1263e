// Leap baseline: aggressive transaction-level data migration (Sec. II-B1).
#pragma once

#include <memory>
#include <vector>

#include "protocols/protocol.h"
#include "txn/two_phase_engine.h"

namespace lion {

/// Leap always migrates remote data to the local node before executing each
/// operation ("pull" at transaction granularity), then commits locally and
/// skips the prepare phase. Mastership moves are record-granule (only the
/// working set transfers), but every move blocks the partition, so the
/// "ping-pong" problem and load collapse under skew emerge naturally.
class LeapProtocol : public Protocol {
 public:
  LeapProtocol(Cluster* cluster, MetricsCollector* metrics);

  std::string name() const override { return "Leap"; }
  void SubmitTxn(TxnPtr txn, TxnDoneFn done) override;

  uint64_t migrations_requested() const { return migrations_requested_; }

 private:
  /// A transaction pulling its remote partitions' mastership to `coord`
  /// before it runs. One migration callback of the chain owns it at a time.
  struct Pull {
    TxnPtr txn;
    TxnDoneFn done;
    NodeId coord = kInvalidNode;
    std::vector<PartitionId> parts;
    std::vector<PartitionId> missing;
  };

  void MigrateNext(std::unique_ptr<Pull> pull, size_t index);
  /// Executes on the coordinator: local commit, no prepare round.
  void RunLocal(const std::vector<PartitionId>& parts, NodeId coord,
                TxnPtr txn, TxnDoneFn done);

  TwoPhaseEngine engine_;
  // The submitted transaction's partitions; reused across submissions.
  std::vector<PartitionId> parts_;
  uint64_t migrations_requested_ = 0;
};

}  // namespace lion
