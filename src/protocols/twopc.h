// Baseline: classic OCC + two-phase commit (Sec. VI-A2a).
#pragma once

#include <vector>

#include "protocols/protocol.h"
#include "txn/two_phase_engine.h"

namespace lion {

/// The standard distributed protocol of Fig. 1: transactions route to the
/// node holding the most of their primary partitions and always undergo the
/// execute / prepare / commit phases, with no placement adaptation.
class TwoPcProtocol : public Protocol {
 public:
  TwoPcProtocol(Cluster* cluster, MetricsCollector* metrics);

  std::string name() const override { return "2PC"; }
  void SubmitTxn(TxnPtr txn, TxnDoneFn done) override;

 private:
  TwoPhaseEngine engine_;
  // The submitted transaction's partitions; reused across submissions.
  std::vector<PartitionId> parts_;
};

}  // namespace lion
