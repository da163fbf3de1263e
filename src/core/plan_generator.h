// The replica rearrangement algorithm (Algorithm 1, Sec. IV-B3).
#pragma once

#include <vector>

#include "common/types.h"
#include "core/clump.h"
#include "core/cost_model.h"
#include "core/plan.h"
#include "replication/router_table.h"

namespace lion {

struct PlanGeneratorConfig {
  /// ε: permissible load imbalance; θ = avg * (1 + ε) caps per-node load
  /// (fixed; the Schism partitioner caps its nodes with it too).
  static constexpr double epsilon = 0.25;
  CostModelConfig cost;
};

/// Implements Algorithm 1:
///   1. clump dispatching — assign each clump to the node minimizing its
///      placement cost f_o (Eq. 3), tracking per-node balance factors b_i;
///   2. load fine-tuning — while some node exceeds θ, move the largest
///      fitting clump from an overloaded node to the cheapest idle node.
class PlanGenerator {
 public:
  explicit PlanGenerator(PlanGeneratorConfig config)
      : config_(config), cost_model_(config.cost) {}

  /// Produces the reconfiguration plan for `clumps` against placement
  /// `table`. Clump destinations (c.n) are filled in the returned plan.
  ReconfigurationPlan Rearrange(std::vector<Clump> clumps,
                                const RouterTable& table) const;

 private:
  /// FindDstNode: minimal f_o; ties prefer the currently least-loaded node.
  NodeId FindDstNode(const Clump& clump, const RouterTable& table,
                     const std::vector<double>& balance,
                     std::vector<double>* costs_out) const;

  /// CheckBalance: all balance factors within θ = avg * (1 + ε).
  bool CheckBalance(double avg, const std::vector<double>& balance) const;

  PlanGeneratorConfig config_;
  CostModel cost_model_;
};

}  // namespace lion
