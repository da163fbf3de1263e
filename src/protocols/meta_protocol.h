// Runtime meta-protocol: per-partition adaptive protocol switching driven
// by the workload predictor's forecasts.
//
// Lion's thesis is that forecasted per-class load should drive runtime
// adaptation; STAR shows phase-switching between single-master batching and
// distributed execution wins when the workload mix shifts. The meta
// protocol combines both: it owns two child protocols built through
// ProtocolRegistry, 2PC as the baseline and Star as the single-master batch
// mode, routes every transaction by the current per-partition assignment,
// and at every epoch boundary consults the predictor's per-partition
// forecasts plus the observed cross-partition ratios to decide flips:
//
//   * predicted write-hot AND cross-heavy      -> Star (single-master)
//   * everything else                          -> 2PC (the baseline)
//
// Each flip is gated by a hysteresis window (the rule must prefer the same
// target for several consecutive epochs, and a partition may not flip again
// within a cooldown) and by the migration cost: the partition's smoothed
// cross-partition load must reach a fixed multiple of the placement cost of
// the flip, the Eq. 3/4 migration weight wm. The two thresholds, the
// smoothing factor, the hysteresis, the cooldown and the cost gate are
// constants in meta_protocol.cc.
//
// Switching is a safe epoch-boundary handoff: the outgoing child's buffered
// work for the partition is flushed, new arrivals touching the partition
// park in a FIFO queue, and the flip completes only when the partition's
// in-flight count drains to zero — at which point parked transactions
// re-enter through the public Submit gate (re-checking chaos availability)
// and the flip joins the protocol's timeline, which the result reports as
// `protocol_switches`.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/predictor_interface.h"
#include "protocols/protocol.h"

namespace lion {

class MetaProtocol : public Protocol {
 public:
  /// The children, by index: 0 is the baseline every partition starts on,
  /// 1 the single-master mode write-hot, cross-heavy partitions flip to.
  static constexpr size_t kNumChildren = 2;
  static constexpr const char* kChildNames[kNumChildren] = {"2PC", "Star"};

  /// `children[i]` is the protocol registered as kChildNames[i].
  /// `predictor` may be null (decisions then use observed EWMAs only);
  /// `horizon` is the forecast lead in predictor sampling intervals.
  MetaProtocol(Cluster* cluster, MetricsCollector* metrics,
               const CostModelConfig& cost,
               std::array<std::unique_ptr<Protocol>, kNumChildren> children,
               std::unique_ptr<PredictorInterface> predictor, int horizon);
  ~MetaProtocol() override;

  std::string name() const override { return "meta"; }

  /// Starts the children first (their epoch timers land ahead of the
  /// meta timer in same-timestamp FIFO order, so batch children flush
  /// before each decision round), then the meta epoch timer.
  void Start() override;

  /// Stops the meta timer, then every child (batch children flush their
  /// remaining buffers). In-flight switches complete as their partitions
  /// drain.
  void Stop() override;

  /// The per-epoch decision round: folds the observation windows into the
  /// EWMAs, pulls fresh forecasts, and starts any flips that pass
  /// hysteresis and the cost gate.
  void OnEpoch(SimTime now) override;

  /// Arms the gate on this protocol AND every child, so child-internal
  /// retries (RetryAfterBackoff re-enters the child's own Submit) respect
  /// degradation too.
  void EnableDegradation(const ChaosConfig* config) override;

  /// Writes `meta` (children, final assignment, flip count) and
  /// `protocol_switches` (the flip timeline, warmup included).
  void AddResultMembers(Json* members) const override;

  // --- introspection (tests) -------------------------------------------------
  /// Completed flips.
  uint64_t switches_completed() const { return flips_.size(); }
  /// Partitions per child under the current assignment.
  std::vector<uint64_t> AssignmentCounts() const;
  /// True while any partition is mid-handoff.
  bool SwitchInProgress() const;
  /// Transactions parked behind an in-progress handoff.
  size_t parked() const { return parked_.size(); }

 protected:
  void SubmitTxn(TxnPtr txn, TxnDoneFn done) override;

 private:
  struct ParkedTxn {
    TxnPtr txn;
    TxnDoneFn done;
  };

  /// One completed flip: `partition` moved from child `from` to child `to`
  /// at simulated time `at`.
  struct Flip {
    SimTime at = 0;
    PartitionId partition = 0;
    int from = 0;
    int to = 0;
  };

  struct PartitionState {
    int assigned = 0;       // child index currently serving this partition
    int switching_to = -1;  // target child while a handoff drains, else -1
    int inflight = 0;       // meta-submitted txns not yet handed back
    int last_desired = 0;
    int desired_streak = 0;
    int64_t last_flip_epoch = 0;
    double load_ewma = 0.0;   // txns/epoch touching this partition
    double cross_ewma = 0.0;  // fraction of those that were multi-partition
    uint64_t window_total = 0;
    uint64_t window_cross = 0;
  };

  /// The decision rule: which child the current signals favor.
  static int DesiredChild(const PartitionState& ps, double norm_load);
  /// Majority vote of the touched partitions' assignments (ties -> lowest
  /// child index).
  int RouteChild(const std::vector<PartitionId>& parts) const;
  void StartSwitch(PartitionId pid, int target, SimTime now);
  void CompleteSwitch(PartitionId pid, SimTime now);

  int horizon_;
  /// Placement cost of flipping a partition to the single-master child:
  /// the migration weight wm of the replica move the flip stands for.
  double flip_cost_;
  std::array<std::unique_ptr<Protocol>, kNumChildren> children_;
  std::unique_ptr<PredictorInterface> predictor_;
  std::vector<PartitionState> parts_;
  std::deque<ParkedTxn> parked_;
  int64_t epoch_index_ = 0;
  std::vector<Flip> flips_;  // in completion order
  std::vector<double> forecast_;  // per-partition forecast scratch
};

}  // namespace lion
