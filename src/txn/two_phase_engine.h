// Shared transaction execution engine: execution / prepare / commit phases
// with OCC validation, following the standard protocol of Sec. II-A.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/move_fn.h"
#include "common/types.h"
#include "metrics/metrics.h"
#include "replication/cluster.h"
#include "txn/transaction.h"

namespace lion {

/// Drives one transaction from a coordinator node through the execution,
/// prepare, and commit phases of Fig. 1. Used directly by the 2PC baseline
/// and reused by Leap, Clay, and Lion for their distributed fallback path.
///
/// Single-node transactions (all primaries on the coordinator) take the
/// one-shot path: execute, validate, apply — skipping the prepare round
/// trips entirely (Sec. III step 1).
///
/// Allocation contract: in steady state a run allocates nothing. The
/// per-run state lives in a context recycled through a per-engine free list
/// (its vectors keep their capacity), every closure the engine schedules is
/// `this` + a one-word context handle + a few scalars and so fits MoveFn's
/// inline buffer (checked at compile time), and prepare-phase fan-in is
/// counted in the context instead of in shared counters.
class TwoPhaseEngine {
 public:
  struct Options {
    /// Delay commit acknowledgement to the epoch boundary (group commit
    /// visibility, used by batch-mode Lion).
    bool group_commit_visibility = false;
  };

  /// Completion: true on commit, false on abort. Move-only, so a caller's
  /// completion may own the transaction outright.
  using DoneFn = MoveFn<void(bool)>;

  TwoPhaseEngine(Cluster* cluster, MetricsCollector* metrics);
  ~TwoPhaseEngine();

  TwoPhaseEngine(const TwoPhaseEngine&) = delete;
  TwoPhaseEngine& operator=(const TwoPhaseEngine&) = delete;

  /// Executes `txn` from `coordinator`. `parts` must be the transaction's
  /// distinct partitions in ascending order (Transaction::Partitions());
  /// callers compute it once per submission and the engine copies it.
  /// `done(true)` on commit, with locks released and writes applied+logged;
  /// `done(false)` on an OCC abort with all locks released (the caller
  /// decides whether to retry). `done` runs after the engine has let go of
  /// the run's context, so it may start the next run straight away.
  ///
  /// The admission cost (txn_setup + extra_compute) is charged on the
  /// coordinator at kNew priority; breakdown timing fields of the txn are
  /// updated in place.
  void Run(Transaction* txn, const std::vector<PartitionId>& parts,
           NodeId coordinator, const Options& opts, DoneFn done);

  /// Contexts ever created (the high-water mark of concurrent runs).
  size_t contexts_created() const { return pool_.size(); }

 private:
  struct Ctx;
  class Ref;

  Ref Acquire();
  /// Returns the context to the free list and hands back its completion.
  DoneFn Release(Ref ctx);

  void StartExecution(Ref ctx);
  void ExecutePartition(Ref ctx, uint32_t i);
  void ReadLocal(Ref ctx, uint32_t i);
  void ServeRemoteRead(Ref ctx, uint32_t i);
  void OnExecutionDone(Ref ctx);
  void RunSingleNodeCommit(Ref ctx);
  void StartPrepare(Ref ctx);
  void PreparePartition(Ref ctx, uint32_t i);
  void HandlePrepare(Ref ctx, uint32_t i);
  void OnPrepareAck(Ref ctx, uint32_t i);
  void SendVote(Ref ctx, uint32_t i, bool yes);
  void OnVote(Ref ctx, bool yes);
  void StartCommit(Ref ctx);
  void OnCommitAck(Ref ctx);
  void AbortPrepared(Ref ctx);
  void Finalize(Ref ctx, bool committed);
  void Complete(Ref ctx, bool committed);

  Cluster* cluster_;
  MetricsCollector* metrics_;
  std::vector<std::unique_ptr<Ctx>> pool_;  // owns every context
  std::vector<Ctx*> free_;
};

}  // namespace lion
