// Replica remastering: promoting a caught-up secondary to primary.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/move_fn.h"
#include "common/types.h"
#include "replication/cluster_config.h"
#include "replication/router_table.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/partition_store.h"

namespace lion {

/// Implements the remastering procedure of Sec. III:
///   1. pick a secondary as candidate; block new operations on the partition,
///   2. synchronize lagging log entries to the candidate,
///   3. elect the candidate as new primary and unblock.
///
/// Concurrent remaster attempts on the same partition conflict: the first
/// wins and later ones fail immediately (their transactions fall back to
/// distributed execution, Sec. III).
class RemasterManager {
 public:
  RemasterManager(Simulator* sim, Network* network, RouterTable* table,
                  std::vector<PartitionStore*> stores,
                  const ClusterConfig& config);

  /// Remasters `pid` onto `target`. `done(true)` once `target` is primary;
  /// `done(false)` if the partition is being reconfigured, or `target`
  /// holds no live secondary replica.
  ///
  /// The total duration is remaster_base_delay + lag * remaster_per_entry,
  /// plus the control-message round trip.
  void Remaster(PartitionId pid, NodeId target, MoveFn<void(bool)> done);

  /// True while `pid` is blocked by an in-flight remaster (operations must
  /// wait; see WaitUntilAvailable).
  bool IsBlocked(PartitionId pid) const;

  /// Runs `fn` as soon as `pid` is not blocked (immediately if free). The
  /// unblocked fast path calls `fn` directly, with no type erasure; only a
  /// blocked partition parks it as a MoveFn.
  template <typename F>
  void WaitUntilAvailable(PartitionId pid, F&& fn) {
    if (!IsBlocked(pid)) {
      fn();
      return;
    }
    waiters_[pid].emplace_back(std::forward<F>(fn));
  }

  /// Releases all waiters of `pid` if the partition is no longer blocked.
  /// Called by other reconfiguration paths (e.g. blocking migration) that
  /// share the partition block with remastering.
  void ReleaseWaiters(PartitionId pid);

  uint64_t remasters_completed() const { return remasters_completed_; }
  uint64_t remasters_failed() const { return remasters_failed_; }
  SimTime total_remaster_time() const { return total_remaster_time_; }

 private:
  void Finish(PartitionId pid);

  Simulator* sim_;
  Network* network_;
  RouterTable* table_;
  std::vector<PartitionStore*> stores_;
  ClusterConfig config_;

  uint64_t remasters_completed_;
  uint64_t remasters_failed_;
  SimTime total_remaster_time_;
  std::unordered_map<PartitionId, std::deque<MoveFn<void()>>> waiters_;
};

}  // namespace lion
