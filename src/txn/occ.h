// OCC (silo-style) validation helpers over a partition's records.
#pragma once

#include "common/types.h"
#include "replication/replication_manager.h"
#include "storage/partition_store.h"
#include "txn/transaction.h"

namespace lion {

/// Stateless helpers implementing optimistic concurrency control per
/// partition. Protocols call these from participant prepare/commit handlers:
///
///   execution : ReadOps records versions into the txn's operations;
///   prepare   : ValidateAndLock re-checks read versions and write-locks the
///               write set (all-or-nothing);
///   commit    : ApplyAndUnlock bumps each written record's version, appends
///               the installed version to the replication log, releases
///               locks;
///   abort     : ReleaseLocks undoes a successful validation.
class Occ {
 public:
  /// Performs the partition-local reads of `txn`, recording the version
  /// each one observed (0 for an absent key). Inserts are skipped: an
  /// insert's key is new, so there is nothing to read, and validation never
  /// reads a write's version.
  static void ReadOps(PartitionStore* store, Transaction* txn);

  /// Validates reads and locks writes for ops of `txn` on this partition.
  /// Returns false (leaving no locks held) on any conflict: a read version
  /// changed, or any accessed record is locked by another transaction.
  static bool ValidateAndLock(PartitionStore* store, Transaction* txn);

  /// Installs the write set, appends each write's new version to the
  /// replication log, and releases locks. Must follow a successful
  /// ValidateAndLock.
  static void ApplyAndUnlock(PartitionStore* store, Transaction* txn,
                             ReplicationManager* replication);

  /// Releases any locks `txn` holds on this partition (abort path).
  static void ReleaseLocks(PartitionStore* store, Transaction* txn);
};

}  // namespace lion
