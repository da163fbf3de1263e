#include "txn/two_phase_engine.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>

#include "sim/network.h"
#include "txn/occ.h"

namespace lion {

namespace {

// Passes an engine closure through unchanged after checking, at compile
// time, that it fits MoveFn's inline buffer: that is what keeps scheduling
// the engine's events allocation-free.
template <typename F>
F&& Inline(F&& fn) {
  static_assert(Simulator::EventFn::kFitsInline<std::decay_t<F>>,
                "engine closure spills MoveFn's inline buffer");
  return std::forward<F>(fn);
}

}  // namespace

struct TwoPhaseEngine::Ctx {
  /// One touched partition and the fan-in state of its prepare.
  struct Part {
    PartitionId pid = kInvalidPartition;
    int ops = 0;
    int writes = 0;
    NodeId participant = kInvalidNode;  // primary the prepare went to
    int acks_pending = 0;               // secondary prepare-log acks
    SimTime repl_start = 0;
  };

  Transaction* txn = nullptr;
  NodeId coord = kInvalidNode;
  Options opts;
  DoneFn done;

  std::vector<Part> parts;
  bool single_node = false;

  int pending = 0;
  bool vote_failed = false;
  std::vector<PartitionId> prepared;  // partitions currently holding locks

  SimTime submit_at = 0;
  SimTime exec_start = 0;
  SimTime exec_end = 0;
  SimTime commit_end = 0;
  SimTime repl_wait = 0;  // prepare-phase secondary-ack wait (summed)

  /// Bumped each time the context returns to the free list.
  uint32_t generation = 0;
};

// What every engine closure captures: a raw pointer into the pool. Debug
// builds also carry the generation the handle was issued under and check it
// on every access, so a closure that outlived its run fails loudly instead
// of touching a recycled context that now belongs to another transaction.
class TwoPhaseEngine::Ref {
 public:
  explicit Ref(Ctx* ctx) : ctx_(ctx) {
#ifndef NDEBUG
    generation_ = ctx->generation;
#endif
  }

  Ctx* operator->() const {
    assert(ctx_->generation == generation_ &&
           "engine context used after it was recycled");
    return ctx_;
  }
  Ctx* get() const { return operator->(); }

 private:
  Ctx* ctx_;
#ifndef NDEBUG
  uint32_t generation_;
#endif
};

TwoPhaseEngine::TwoPhaseEngine(Cluster* cluster, MetricsCollector* metrics)
    : cluster_(cluster), metrics_(metrics) {}

TwoPhaseEngine::~TwoPhaseEngine() = default;

TwoPhaseEngine::Ref TwoPhaseEngine::Acquire() {
  if (free_.empty()) {
    pool_.push_back(std::make_unique<Ctx>());
    free_.reserve(pool_.size());  // Release never reallocates
    return Ref(pool_.back().get());
  }
  Ctx* ctx = free_.back();
  free_.pop_back();
  return Ref(ctx);
}

TwoPhaseEngine::DoneFn TwoPhaseEngine::Release(Ref ctx) {
  Ctx* raw = ctx.get();
  DoneFn done = std::move(raw->done);
  raw->txn = nullptr;
  raw->generation++;
  free_.push_back(raw);
  return done;
}

void TwoPhaseEngine::Run(Transaction* txn,
                         const std::vector<PartitionId>& parts,
                         NodeId coordinator, const Options& opts,
                         DoneFn done) {
  if (txn->ops().empty()) {
    cluster_->sim()->Schedule(
        0, [done = std::move(done)]() mutable { done(true); });
    return;
  }
  Ref ctx = Acquire();
  ctx->txn = txn;
  ctx->coord = coordinator;
  ctx->opts = opts;
  ctx->done = std::move(done);
  ctx->parts.clear();
  for (PartitionId pid : parts) ctx->parts.push_back(Ctx::Part{pid});
  for (const auto& op : txn->ops()) {
    cluster_->store(op.partition)->Prefetch(op.key);
    for (Ctx::Part& part : ctx->parts) {
      if (part.pid == op.partition) {
        part.ops++;
        if (op.type == OpType::kWrite) part.writes++;
        break;
      }
    }
  }
  txn->set_coordinator(coordinator);

  const ClusterConfig& cfg = cluster_->config();
  ctx->single_node = true;
  for (const Ctx::Part& part : ctx->parts) {
    if (cluster_->router().PrimaryOf(part.pid) != coordinator) {
      ctx->single_node = false;
      break;
    }
  }
  ctx->pending = 0;
  ctx->vote_failed = false;
  ctx->prepared.clear();
  ctx->submit_at = cluster_->sim()->Now();
  ctx->exec_start = ctx->exec_end = ctx->commit_end = 0;
  ctx->repl_wait = 0;

  SimTime setup = cfg.txn_setup_cost + txn->extra_compute();
  cluster_->pool(coordinator)->Submit(
      TaskPriority::kNew, setup, Inline([this, ctx, setup]() {
        SimTime now = cluster_->sim()->Now();
        ctx->txn->breakdown().scheduling += now - setup - ctx->submit_at;
        ctx->exec_start = now;
        StartExecution(ctx);
      }));
}

void TwoPhaseEngine::StartExecution(Ref ctx) {
  const uint32_t n = static_cast<uint32_t>(ctx->parts.size());
  ctx->pending = static_cast<int>(n);
  for (uint32_t i = 0; i < n; ++i) ExecutePartition(ctx, i);
}

void TwoPhaseEngine::ExecutePartition(Ref ctx, uint32_t i) {
  const Ctx::Part& part = ctx->parts[i];
  NodeId primary = cluster_->router().PrimaryOf(part.pid);
  if (primary == ctx->coord) {
    cluster_->remaster().WaitUntilAvailable(
        part.pid, Inline([this, ctx, i]() { ReadLocal(ctx, i); }));
    return;
  }

  // Remote partition: one round trip carrying this partition's op batch.
  uint64_t req_bytes =
      MessageSizes::kHeader + part.ops * MessageSizes::kOpRequest;
  cluster_->network().Send(
      ctx->coord, primary, req_bytes, Inline([this, ctx, i]() {
        cluster_->remaster().WaitUntilAvailable(
            ctx->parts[i].pid,
            Inline([this, ctx, i]() { ServeRemoteRead(ctx, i); }));
      }));
}

void TwoPhaseEngine::ReadLocal(Ref ctx, uint32_t i) {
  // Reads execute as their own task so that concurrent commits on other
  // workers can interleave (OCC conflicts stay observable).
  const Ctx::Part& part = ctx->parts[i];
  PartitionId pid = part.pid;
  cluster_->pool(cluster_->router().PrimaryOf(pid))
      ->Submit(TaskPriority::kResume,
               part.ops * cluster_->config().op_local_cost,
               Inline([this, ctx, pid]() {
                 Occ::ReadOps(cluster_->store(pid), ctx->txn);
                 OnExecutionDone(ctx);
               }));
}

void TwoPhaseEngine::ServeRemoteRead(Ref ctx, uint32_t i) {
  const Ctx::Part& part = ctx->parts[i];
  NodeId serving = cluster_->router().PrimaryOf(part.pid);
  cluster_->pool(serving)->Submit(
      TaskPriority::kService, part.ops * cluster_->config().op_service_cost,
      Inline([this, ctx, i, serving]() {
        const Ctx::Part& p = ctx->parts[i];
        Occ::ReadOps(cluster_->store(p.pid), ctx->txn);
        uint64_t resp_bytes =
            MessageSizes::kHeader + p.ops * MessageSizes::kOpResponse;
        cluster_->network().Send(
            serving, ctx->coord, resp_bytes,
            Inline([this, ctx]() { OnExecutionDone(ctx); }));
      }));
}

void TwoPhaseEngine::OnExecutionDone(Ref ctx) {
  if (--ctx->pending > 0) return;
  ctx->exec_end = cluster_->sim()->Now();
  ctx->txn->breakdown().execution += ctx->exec_end - ctx->exec_start;
  if (ctx->single_node) {
    RunSingleNodeCommit(ctx);
  } else {
    ctx->txn->set_exec_class(ExecClass::kDistributed);
    StartPrepare(ctx);
  }
}

void TwoPhaseEngine::RunSingleNodeCommit(Ref ctx) {
  // Validate + apply in one local task; prepare round trips are skipped.
  const ClusterConfig& cfg = cluster_->config();
  int total_ops = static_cast<int>(ctx->txn->ops().size());
  int total_writes = 0;
  for (const Ctx::Part& part : ctx->parts) total_writes += part.writes;
  SimTime cost = total_ops * cfg.validation_cost_per_op + cfg.log_write_cost +
                 total_writes * cfg.op_local_cost;

  cluster_->pool(ctx->coord)->Submit(
      TaskPriority::kResume, cost, Inline([this, ctx]() {
        bool ok = true;
        for (const Ctx::Part& part : ctx->parts) {
          if (!Occ::ValidateAndLock(cluster_->store(part.pid), ctx->txn)) {
            ok = false;
            break;
          }
          ctx->prepared.push_back(part.pid);
        }
        if (!ok) {
          for (PartitionId pid : ctx->prepared)
            Occ::ReleaseLocks(cluster_->store(pid), ctx->txn);
          ctx->prepared.clear();
          Finalize(ctx, false);
          return;
        }
        for (const Ctx::Part& part : ctx->parts) {
          Occ::ApplyAndUnlock(cluster_->store(part.pid), ctx->txn,
                              &cluster_->replication());
        }
        ctx->prepared.clear();
        ctx->commit_end = cluster_->sim()->Now();
        ctx->txn->breakdown().commit += ctx->commit_end - ctx->exec_end;
        Finalize(ctx, true);
      }));
}

void TwoPhaseEngine::StartPrepare(Ref ctx) {
  const uint32_t n = static_cast<uint32_t>(ctx->parts.size());
  ctx->pending = static_cast<int>(n);
  ctx->vote_failed = false;
  for (uint32_t i = 0; i < n; ++i) PreparePartition(ctx, i);
}

void TwoPhaseEngine::PreparePartition(Ref ctx, uint32_t i) {
  Ctx::Part& part = ctx->parts[i];
  part.participant = cluster_->router().PrimaryOf(part.pid);
  cluster_->network().Send(
      ctx->coord, part.participant, MessageSizes::kPrepare,
      Inline([this, ctx, i]() {
        const ClusterConfig& cfg = cluster_->config();
        const Ctx::Part& p = ctx->parts[i];
        SimTime handler_cost =
            p.ops * cfg.validation_cost_per_op + cfg.log_write_cost;
        cluster_->pool(p.participant)
            ->Submit(TaskPriority::kService, handler_cost,
                     Inline([this, ctx, i]() { HandlePrepare(ctx, i); }));
      }));
}

void TwoPhaseEngine::HandlePrepare(Ref ctx, uint32_t i) {
  Ctx::Part& part = ctx->parts[i];
  // The primary may have moved since routing; force a retry so the
  // transaction re-executes against current placement.
  if (cluster_->router().PrimaryOf(part.pid) != part.participant ||
      !Occ::ValidateAndLock(cluster_->store(part.pid), ctx->txn)) {
    SendVote(ctx, i, false);
    return;
  }
  ctx->prepared.push_back(part.pid);
  const ReplicaGroup& group = cluster_->router().group(part.pid);
  int live_secondaries = 0;
  for (const auto& s : group.secondaries())
    if (!s.delete_flag) live_secondaries++;
  if (live_secondaries == 0) {
    SendVote(ctx, i, true);
    return;
  }
  // Synchronously replicate the prepare record to secondaries; the vote
  // goes out once the last of them has acknowledged (OnPrepareAck).
  part.acks_pending = live_secondaries;
  part.repl_start = cluster_->sim()->Now();
  uint64_t bytes = MessageSizes::kPrepare +
                   static_cast<uint64_t>(part.writes) * MessageSizes::kLogEntry;
  for (const auto& s : group.secondaries()) {
    if (s.delete_flag) continue;
    NodeId sec = s.node;
    cluster_->network().Send(
        part.participant, sec, bytes, Inline([this, ctx, i, sec]() {
          cluster_->pool(sec)->Submit(
              TaskPriority::kService, cluster_->config().message_handling_cost,
              Inline([this, ctx, i, sec]() {
                cluster_->network().Send(
                    sec, ctx->parts[i].participant,
                    MessageSizes::kCommitDecision,
                    Inline([this, ctx, i]() { OnPrepareAck(ctx, i); }));
              }));
        }));
  }
}

void TwoPhaseEngine::OnPrepareAck(Ref ctx, uint32_t i) {
  Ctx::Part& part = ctx->parts[i];
  if (--part.acks_pending > 0) return;
  ctx->repl_wait += cluster_->sim()->Now() - part.repl_start;
  SendVote(ctx, i, true);
}

void TwoPhaseEngine::SendVote(Ref ctx, uint32_t i, bool yes) {
  cluster_->network().Send(ctx->parts[i].participant, ctx->coord,
                           MessageSizes::kCommitDecision,
                           Inline([this, ctx, yes]() { OnVote(ctx, yes); }));
}

void TwoPhaseEngine::OnVote(Ref ctx, bool yes) {
  if (!yes) ctx->vote_failed = true;
  if (--ctx->pending > 0) return;
  if (ctx->vote_failed) {
    AbortPrepared(ctx);
  } else {
    StartCommit(ctx);
  }
}

void TwoPhaseEngine::StartCommit(Ref ctx) {
  const uint32_t n = static_cast<uint32_t>(ctx->parts.size());
  ctx->pending = static_cast<int>(n);
  for (uint32_t i = 0; i < n; ++i) {
    NodeId participant = cluster_->router().PrimaryOf(ctx->parts[i].pid);
    cluster_->network().Send(
        ctx->coord, participant, MessageSizes::kCommitDecision,
        Inline([this, ctx, i, participant]() {
          const ClusterConfig& cfg = cluster_->config();
          SimTime apply_cost =
              cfg.log_write_cost + ctx->parts[i].writes * cfg.op_local_cost;
          cluster_->pool(participant)->Submit(
              TaskPriority::kService, apply_cost,
              Inline([this, ctx, i, participant]() {
                Occ::ApplyAndUnlock(cluster_->store(ctx->parts[i].pid),
                                    ctx->txn, &cluster_->replication());
                cluster_->network().Send(
                    participant, ctx->coord, MessageSizes::kCommitDecision,
                    Inline([this, ctx]() { OnCommitAck(ctx); }));
              }));
        }));
  }
  ctx->prepared.clear();
}

void TwoPhaseEngine::OnCommitAck(Ref ctx) {
  if (--ctx->pending > 0) return;
  ctx->commit_end = cluster_->sim()->Now();
  auto& bd = ctx->txn->breakdown();
  SimTime commit_span = ctx->commit_end - ctx->exec_end;
  SimTime repl = std::min(ctx->repl_wait, commit_span);
  bd.replication += repl;
  bd.commit += commit_span - repl;
  Finalize(ctx, true);
}

void TwoPhaseEngine::AbortPrepared(Ref ctx) {
  // Release locks on every partition that voted yes, then report the abort.
  if (ctx->prepared.empty()) {
    Finalize(ctx, false);
    return;
  }
  ctx->pending = static_cast<int>(ctx->prepared.size());
  for (PartitionId pid : ctx->prepared) {
    NodeId participant = cluster_->router().PrimaryOf(pid);
    cluster_->network().Send(
        ctx->coord, participant, MessageSizes::kCommitDecision,
        Inline([this, ctx, pid]() {
          Occ::ReleaseLocks(cluster_->store(pid), ctx->txn);
          if (--ctx->pending == 0) Finalize(ctx, false);
        }));
  }
  ctx->prepared.clear();
}

void TwoPhaseEngine::Finalize(Ref ctx, bool committed) {
  if (!committed) {
    if (metrics_ != nullptr) metrics_->OnAbort();
    Complete(ctx, false);
    return;
  }
  if (ctx->opts.group_commit_visibility) {
    // The epoch waiter is the run's last event: the context is recycled
    // only once it has fired.
    SimTime wait_start = cluster_->sim()->Now();
    cluster_->replication().OnEpochEnd(Inline([this, ctx, wait_start]() {
      ctx->txn->breakdown().replication += cluster_->sim()->Now() - wait_start;
      Complete(ctx, true);
    }));
    return;
  }
  Complete(ctx, true);
}

void TwoPhaseEngine::Complete(Ref ctx, bool committed) {
  // Every event naming this context has run; recycle it before handing the
  // outcome back, so a completion that starts the next run reuses it.
  DoneFn done = Release(ctx);
  done(committed);
}

}  // namespace lion
