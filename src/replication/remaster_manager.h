// Replica remastering: promoting a caught-up secondary to primary.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/move_fn.h"
#include "common/types.h"
#include "replication/cluster_config.h"
#include "replication/router_table.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace lion {

/// Implements the remastering procedure of Sec. III:
///   1. pick a secondary as candidate; block new operations on the partition,
///   2. synchronize lagging log entries to the candidate,
///   3. elect the candidate as new primary and unblock.
///
/// Concurrent remaster attempts on the same partition conflict: the first
/// wins and later ones fail immediately (their transactions fall back to
/// distributed execution, Sec. III).
///
/// It also owns the partition block that every reconfiguration shares.
/// ReplicaGroup::BeginReconfig sets it, operations park behind it through
/// WaitUntilAvailable, and EndReconfig is the one call that lifts it and
/// runs them.
class RemasterManager {
 public:
  RemasterManager(Simulator* sim, Network* network, RouterTable* table,
                  const ClusterConfig& config);

  /// Remasters `pid` onto `target`. `done(true)` once `target` is primary;
  /// `done(false)` if the partition is being reconfigured, or `target`
  /// holds no live secondary replica.
  ///
  /// The total duration is remaster_base_delay + lag * remaster_per_entry,
  /// plus the control-message round trip.
  void Remaster(PartitionId pid, NodeId target, MoveFn<void(bool)> done);

  /// True while a reconfiguration blocks `pid` (operations must wait; see
  /// WaitUntilAvailable).
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

  /// Ends the reconfiguration of `pid` that BeginReconfig returned `token`
  /// for: unblocks the partition and runs its parked operations in arrival
  /// order. Returns false and changes nothing if a newer reconfiguration
  /// has superseded `token` (it owns the block now).
  bool EndReconfig(PartitionId pid, uint64_t token);

  uint64_t remasters_completed() const { return remasters_completed_; }
  uint64_t remasters_failed() const { return remasters_failed_; }
  SimTime total_remaster_time() const { return total_remaster_time_; }

 private:
  void ReleaseWaiters(PartitionId pid);

  Simulator* sim_;
  Network* network_;
  RouterTable* table_;
  ClusterConfig config_;

  uint64_t remasters_completed_;
  uint64_t remasters_failed_;
  SimTime total_remaster_time_;
  std::unordered_map<PartitionId, std::deque<MoveFn<void()>>> waiters_;
};

}  // namespace lion
