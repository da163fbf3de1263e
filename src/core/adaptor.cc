#include "core/adaptor.h"

namespace lion {

void Adaptor::Apply(const PlanEntry& entry) {
  switch (entry.action) {
    case PlanAction::kAddReplica: {
      cluster_->migration().AddReplica(entry.pid, node_, [this](bool ok) {
        if (ok) adds_completed_++;
      });
      break;
    }
    case PlanAction::kRemaster: {
      cluster_->remaster().Remaster(entry.pid, node_, [](bool) {});
      break;
    }
    case PlanAction::kMovePrimary: {
      moves_started_++;
      cluster_->migration().MovePrimary(entry.pid, node_, [](bool) {});
      break;
    }
  }
}

}  // namespace lion
