// Execution primitives of the epoch-batch protocols: a fan-in join, and the
// one way a coordinator reaches a partition's primary.
#pragma once

#include <cstdint>
#include <utility>

#include "common/move_fn.h"
#include "replication/cluster.h"
#include "sim/network.h"

namespace lion {
namespace batch_util {

/// Fan-in of `pending` completions into one continuation. The closures of
/// one phase share it; the last Arrive runs `then`.
struct Join {
  Join(size_t pending, MoveFn<void()> then)
      : pending(static_cast<int>(pending)), then(std::move(then)) {}

  void Arrive() {
    if (--pending == 0) then();
  }

  int pending;
  MoveFn<void()> then;
};

/// What one request to a partition's primary costs: worker time when the
/// coordinator is the primary itself (`local_cost`) or when a remote
/// primary serves it (`service_cost`), the request's bytes, and the
/// reply's bytes (0: no reply).
struct PrimaryRequest {
  SimTime local_cost;
  SimTime service_cost;
  uint64_t bytes;
  uint64_t reply_bytes;
};

/// Runs `work` at partition `pid`'s primary on behalf of coordinator
/// `coord`, then `done`: the read phase, the write install, Aria's
/// reservation round and geo_occ's validate and release rounds all reach
/// primaries through here. If `coord` is the primary, both run in one
/// kResume task on `coord`. Otherwise the request travels to the primary,
/// which runs `work` as a kService task; `done` then runs on arrival of
/// the reply at `coord`, or right after `work` when there is no reply.
template <typename Work, typename Done>
void AtPrimary(Cluster* cluster, NodeId coord, PartitionId pid,
               const PrimaryRequest& req, Work work, Done done) {
  NodeId primary = cluster->router().PrimaryOf(pid);
  if (primary == coord) {
    cluster->pool(coord)->Submit(
        TaskPriority::kResume, req.local_cost,
        [work = std::move(work), done = std::move(done)]() mutable {
          work();
          done();
        });
    return;
  }
  SimTime cost = req.service_cost;
  uint64_t reply_bytes = req.reply_bytes;
  cluster->network().Send(
      coord, primary, req.bytes,
      [cluster, coord, primary, cost, reply_bytes, work = std::move(work),
       done = std::move(done)]() mutable {
        cluster->pool(primary)->Submit(
            TaskPriority::kService, cost,
            [cluster, coord, primary, reply_bytes, work = std::move(work),
             done = std::move(done)]() mutable {
              work();
              if (reply_bytes == 0) {
                done();
              } else {
                cluster->network().Send(primary, coord, reply_bytes,
                                        std::move(done));
              }
            });
      });
}

}  // namespace batch_util
}  // namespace lion
