#include "txn/occ.h"

namespace lion {

void Occ::ReadOps(PartitionStore* store, Transaction* txn) {
  PartitionId pid = store->id();
  for (auto& op : txn->ops()) {
    if (op.partition == pid && !op.is_insert) {
      op.read_version = store->VersionOf(op.key);
    }
  }
}

bool Occ::ValidateAndLock(PartitionStore* store, Transaction* txn) {
  PartitionId pid = store->id();
  // Lock the write set first (deterministic order: plan order).
  for (auto& op : txn->ops()) {
    if (op.partition != pid || op.type != OpType::kWrite) continue;
    if (!store->TryLock(op.key, txn->id())) {
      ReleaseLocks(store, txn);
      return false;
    }
  }
  // Validate the read set: versions unchanged and not locked by others.
  for (auto& op : txn->ops()) {
    if (op.partition != pid || op.type != OpType::kRead) continue;
    if (store->IsLockedByOther(op.key, txn->id()) ||
        store->VersionOf(op.key) != op.read_version) {
      ReleaseLocks(store, txn);
      return false;
    }
  }
  return true;
}

void Occ::ApplyAndUnlock(PartitionStore* store, Transaction* txn,
                         ReplicationManager* replication) {
  PartitionId pid = store->id();
  for (auto& op : txn->ops()) {
    if (op.partition != pid || op.type != OpType::kWrite) continue;
    const Version installed = store->Apply(op.key);
    if (replication != nullptr) replication->Append(pid, op.key, installed);
    store->Unlock(op.key, txn->id());
  }
}

void Occ::ReleaseLocks(PartitionStore* store, Transaction* txn) {
  PartitionId pid = store->id();
  for (auto& op : txn->ops()) {
    if (op.partition != pid || op.type != OpType::kWrite) continue;
    store->Unlock(op.key, txn->id());
  }
}

}  // namespace lion
