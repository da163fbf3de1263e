#include "core/cost_model.h"

#include <cmath>

namespace lion {

double CostModel::CntRemaster(const RouterTable& table, PartitionId v,
                              NodeId n) const {
  if (table.PrimaryOf(v) == n) return 0.0;
  if (!table.HasSecondary(n, v)) return 0.0;
  double f = table.NormalizedFrequency(v);
  return 1.0 + std::log2(f + 1.0);
}

double CostModel::CntMigrate(const RouterTable& table, PartitionId v,
                             NodeId n) const {
  return table.HasReplica(n, v) ? 0.0 : 1.0;
}

double CostModel::PlacementCost(const RouterTable& table, const Clump& clump,
                                NodeId n) const {
  double remaster_sum = 0.0;
  double migrate_sum = 0.0;
  for (PartitionId v : clump.pids) {
    remaster_sum += CntRemaster(table, v, n);
    migrate_sum += CntMigrate(table, v, n);
  }
  return config_.wr * remaster_sum + config_.wm * migrate_sum;
}

double CostModel::ExecutionCost(const RouterTable& table,
                                const std::vector<PartitionId>& parts,
                                NodeId n) const {
  double cost = 0.0;
  for (PartitionId v : parts) {
    if (table.PrimaryOf(v) == n) continue;
    if (table.HasSecondary(n, v)) {
      cost += config_.wr * CntRemaster(table, v, n);
    } else {
      cost += config_.remote_access;
    }
  }
  return cost;
}

}  // namespace lion
