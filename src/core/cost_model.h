// The replica-placement and routing cost model (Sec. IV-B2, Eq. 3-4).
#pragma once

#include <vector>

#include "common/types.h"
#include "core/clump.h"
#include "replication/router_table.h"

namespace lion {

struct CostModelConfig {
  /// w_r: cost weight of remastering an existing secondary (fixed).
  static constexpr double wr = 1.0;
  /// w_m: cost weight of migrating (copying) a missing replica. Migration
  /// moves the full partition, so it dominates remastering.
  double wm = 10.0;
  /// Routing-side weight of accessing a partition with no local replica
  /// (remote execution + 2PC participation).
  double remote_access = 4.0;
};

/// Evaluates Eq. 3/4 for clump placement, and the execution-cost side
/// f_c(n, T) used by the transaction router.
class CostModel {
 public:
  explicit CostModel(CostModelConfig config) : config_(config) {}

  /// cnt_r(v, n) of Eq. 4: 1 + log2(f(v, primary) + 1) when `n` holds a
  /// live secondary of `v` (remastering a hot primary is more disruptive),
  /// else 0.
  double CntRemaster(const RouterTable& table, PartitionId v, NodeId n) const;

  /// cnt_m(v, n) of Eq. 4: 1 when `n` holds no replica of `v`, else 0.
  double CntMigrate(const RouterTable& table, PartitionId v, NodeId n) const;

  /// f_o(n, c) of Eq. 3: wr * sum(cnt_r) + wm * sum(cnt_m).
  double PlacementCost(const RouterTable& table, const Clump& clump,
                       NodeId n) const;

  /// f_c(n, T) of Eq. 1: per-partition execution cost of running a
  /// transaction touching `parts` on node `n` — free on local primaries,
  /// w_r-scaled for remasterable secondaries, remote_access otherwise.
  double ExecutionCost(const RouterTable& table,
                       const std::vector<PartitionId>& parts, NodeId n) const;

  const CostModelConfig& config() const { return config_; }

 private:
  CostModelConfig config_;
};

}  // namespace lion
