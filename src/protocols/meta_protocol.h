// Runtime meta-protocol: per-partition adaptive protocol switching driven
// by the workload predictor's forecasts.
//
// Lion's thesis is that forecasted per-class load should drive runtime
// adaptation; STAR shows phase-switching between single-master batching and
// distributed execution wins when the workload mix shifts. The meta
// protocol combines both: it owns child protocols built through
// ProtocolRegistry (a 2PC-style baseline, a STAR-style single-master batch
// mode, and optionally a WAN candidate such as geo_occ), routes every
// transaction by the current per-partition assignment, and at every epoch
// boundary consults the predictor's per-partition forecasts plus the
// observed cross-partition ratios to decide flips:
//
//   * predicted write-hot AND cross-heavy      -> single-master batching
//   * cross-heavy in a multi-region topology   -> the WAN candidate
//   * everything else                          -> the baseline
//
// Each flip is gated by a hysteresis window (the rule must prefer the same
// target for `meta.hysteresis_epochs` consecutive epochs, and a partition
// may not flip again within `meta.cooldown_epochs`) and by the migration
// cost model: the partition's smoothed cross-partition load must reach
// `meta.cost_gate` x the placement cost of the flip, with cross-region
// flips priced through the geo placement's wan_migration_multiplier.
//
// Switching is a safe epoch-boundary handoff: the outgoing child's buffered
// work for the partition is flushed, new arrivals touching the partition
// park in a FIFO queue, and the flip completes only when the partition's
// in-flight count drains to zero — at which point parked transactions
// re-enter through the public Submit gate (re-checking chaos availability)
// and the flip is recorded in the `protocol_switches` metrics series.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/geo_placement.h"
#include "core/predictor_interface.h"
#include "protocols/meta_config.h"
#include "protocols/protocol.h"

namespace lion {

class MetaProtocol : public Protocol {
 public:
  /// `child_names[i]` labels `children[i]`; index 0 is the baseline, 1 the
  /// single-master candidate, 2 (when present) the WAN candidate.
  /// `predictor` may be null (decisions then use observed EWMAs only);
  /// `horizon` is the forecast lead in predictor sampling intervals.
  MetaProtocol(Cluster* cluster, MetricsCollector* metrics, MetaConfig config,
               const CostModelConfig& cost, const GeoPlacementConfig& geo,
               std::vector<std::string> child_names,
               std::vector<std::unique_ptr<Protocol>> children,
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

  const GeoPlacement* geo_placement() const override {
    return geo_.active() ? &geo_ : nullptr;
  }

  // --- introspection (harness, tests) ----------------------------------------
  size_t num_children() const { return children_.size(); }
  const std::string& child_name(size_t i) const { return child_names_[i]; }
  Protocol* child(size_t i) { return children_[i].get(); }
  /// Completed flips (mirrors the metrics series).
  uint64_t switches_completed() const { return switches_; }
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
  int DesiredChild(const PartitionState& ps, double norm_load) const;
  /// Placement cost of flipping `pid` to `target` (0 toward the baseline;
  /// wm x the geo migration multiplier otherwise).
  double FlipCost(PartitionId pid, int target) const;
  /// Majority vote of the touched partitions' assignments (ties -> lowest
  /// child index).
  int RouteChild(const std::vector<PartitionId>& parts) const;
  void StartSwitch(PartitionId pid, int target, SimTime now);
  void CompleteSwitch(PartitionId pid, SimTime now);

  MetaConfig config_;
  int horizon_;
  GeoPlacement geo_;
  CostModel cost_;
  std::vector<std::string> child_names_;
  std::vector<std::unique_ptr<Protocol>> children_;
  std::unique_ptr<PredictorInterface> predictor_;
  std::vector<PartitionState> parts_;
  std::deque<ParkedTxn> parked_;
  int64_t epoch_index_ = 0;
  uint64_t switches_ = 0;
  std::vector<double> forecast_;  // per-partition forecast scratch
};

}  // namespace lion
