// The planner node: workload analyzer + plan generator (Sec. III).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "core/adaptor.h"
#include "core/clump.h"
#include "core/history_ring.h"
#include "core/plan.h"
#include "core/plan_generator.h"
#include "core/predictor_interface.h"
#include "core/schism.h"
#include "replication/cluster.h"
#include "sim/periodic_timer.h"

namespace lion {

/// Which partitioning strategy drives plan generation (Table II ablation).
enum class PartitioningStrategy {
  /// Lion's replica rearrangement (Algorithm 1, replica-aware).
  kReplicaRearrangement,
  /// Schism-style replica-blind min-cut repartitioning.
  kSchism,
};

struct PlannerConfig {
  PartitioningStrategy strategy = PartitioningStrategy::kReplicaRearrangement;
  /// How often the planner analyzes the workload and re-plans.
  SimTime interval = 500 * kMillisecond;
  /// Minimum history before a planning round does anything.
  size_t min_history = 64;
  PlanGeneratorConfig plan;
};

/// Periodically: collect the recent B transactions (plus K predicted ones),
/// build the heat graph, generate clumps, run the replica rearrangement
/// algorithm, and dispatch the resulting plan entries to each node's
/// adaptor over the network.
class Planner {
 public:
  /// `predictor` may be null (Lion(R) ablation: no workload prediction).
  Planner(Cluster* cluster, PlannerConfig config,
          PredictorInterface* predictor = nullptr);

  /// Starts the periodic planning loop (weak timer).
  void Start();

  /// Halts the planning loop: no further rounds run, so no new migrations
  /// or remasters are initiated. Idempotent; Start() may re-arm it.
  void Stop();

  /// Records one routed transaction's partition set into the history.
  void RecordTxn(const std::vector<PartitionId>& parts, SimTime now);

  /// Runs one planning round immediately (also used by tests).
  void RunOnce();

  Adaptor* adaptor(NodeId node) { return adaptors_[node].get(); }

  uint64_t plans_generated() const { return plans_generated_; }
  uint64_t entries_dispatched() const { return entries_dispatched_; }

  /// The distributor endpoint id used as the source of plan messages.
  NodeId planner_endpoint() const { return cluster_->num_nodes(); }

 private:
  Cluster* cluster_;
  PlannerConfig config_;
  PredictorInterface* predictor_;
  ClumpGenerator clump_generator_;
  PlanGenerator plan_generator_;
  SchismPartitioner schism_;
  std::vector<std::unique_ptr<Adaptor>> adaptors_;
  HistoryRing history_;  // the last B transactions' partition sets
  uint64_t plans_generated_ = 0;
  uint64_t entries_dispatched_ = 0;
  PeriodicTimer tick_timer_;
};

}  // namespace lion
