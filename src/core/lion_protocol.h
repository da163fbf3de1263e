// Lion: the paper's transaction processing protocol (Secs. III-IV).
#pragma once

#include <memory>
#include <vector>

#include "core/planner.h"
#include "core/predictor_interface.h"
#include "core/txn_router.h"
#include "protocols/protocol.h"
#include "txn/two_phase_engine.h"

namespace lion {

/// Configuration of a Lion instance. The ablation variants of Table II
/// (Lion(R), Lion(RW), Lion(RB), Lion, ...) are registry names: the factory
/// sets `planner.strategy` and `batch_mode` from the name, so the config
/// schema does not expose those two.
struct LionOptions {
  /// Batch execution with asynchronous remastering (Sec. IV-D). It also
  /// holds commit acknowledgements to the epoch boundary (group-commit
  /// visibility), so batch mode reports epoch-aligned completion times; in
  /// standard mode the worker releases at local commit and replication
  /// stays asynchronous (Sec. V).
  bool batch_mode = false;
  /// Planning loop; its `plan.cost` holds the Eq. 3/4 weights that the
  /// router and the remaster check read too.
  PlannerConfig planner;
};

/// Lion executes each transaction on a single node whenever that node holds
/// all requisite replicas: directly if they are primaries, after remastering
/// if some are secondaries, and as a regular 2PC distributed transaction
/// otherwise (Sec. III). The planner adapts replica placement in the
/// background (Sec. IV-A/B); the router sends transactions wherever
/// execution is cheapest.
class LionProtocol : public Protocol {
 public:
  /// `predictor` may be null (no workload prediction). The protocol owns
  /// the predictor for its whole lifetime.
  LionProtocol(Cluster* cluster, MetricsCollector* metrics, LionOptions options,
               std::unique_ptr<PredictorInterface> predictor = nullptr);

  std::string name() const override {
    return options_.batch_mode ? "Lion(batch)" : "Lion";
  }
  void Start() override;
  /// Halts the planner (no new migrations/remasters) and flushes any
  /// batch-buffered transactions so their completions still fire.
  void Stop() override;
  /// Epoch boundary (batch mode): flush the buffered batch.
  void OnEpoch(SimTime now) override;

  void SubmitTxn(TxnPtr txn, TxnDoneFn done) override;

  Planner* planner() { return &planner_; }

  uint64_t remaster_requests() const { return remaster_requests_; }
  uint64_t remaster_conversions() const { return remaster_conversions_; }
  uint64_t fallback_distributed() const { return fallback_distributed_; }

 private:
  struct Batch;
  struct Conversion;

  void SubmitStandard(TxnPtr txn, TxnDoneFn done);
  void SubmitBatch(TxnPtr txn, TxnDoneFn done);
  void FlushBatch();
  void ExecuteBatch(const std::shared_ptr<Batch>& batch);
  /// Runs `txn` on `dst` through the engine, with the shared
  /// commit-or-retry completion.
  void Execute(const std::vector<PartitionId>& parts, NodeId dst,
               ExecClass cls, TxnPtr txn, TxnDoneFn done);

  /// Decides whether remastering `pid` onto `dst` beats distributed
  /// execution under the cost model: the remastering cost (Eq. 4, scaled by
  /// w_r) must be below the cost of executing the transaction's `ops_on_pid`
  /// operations remotely. Stealing a whole partition's mastership for a
  /// single remote op is never worthwhile; a 5-op batch usually is.
  bool WorthRemastering(PartitionId pid, NodeId dst, size_t ops_on_pid) const;

  /// Classifies `txn` routed to `dst` into the cases of Sec. III. A primary
  /// already on `dst` needs nothing; a secondary there that passes
  /// WorthRemastering goes to `need_remaster`. Any other partition makes
  /// the transaction distributed (case 3): returns false with
  /// `need_remaster` empty. True means single-node, directly (case 1,
  /// `need_remaster` empty) or after remastering (case 2).
  bool ClassifyCase(const Transaction& txn,
                    const std::vector<PartitionId>& parts, NodeId dst,
                    std::vector<PartitionId>* need_remaster) const;

  LionOptions options_;
  TwoPhaseEngine engine_;
  TxnRouter router_;
  std::unique_ptr<PredictorInterface> predictor_;
  Planner planner_;

  // The submitted transaction's partitions, computed once in SubmitTxn and
  // read by SubmitStandard/SubmitBatch; reused across submissions.
  std::vector<PartitionId> parts_;

  // Batch mode state.
  std::shared_ptr<Batch> current_batch_;

  uint64_t remaster_requests_ = 0;
  uint64_t remaster_conversions_ = 0;
  uint64_t fallback_distributed_ = 0;
};

}  // namespace lion
