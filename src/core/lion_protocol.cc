#include "core/lion_protocol.h"

#include <cstdio>
#include <memory>

#include "harness/registry.h"

namespace lion {

/// One epoch's buffered transactions (batch execution, Sec. IV-D).
struct LionProtocol::Batch {
  struct Entry {
    TxnPtr txn;
    TxnDoneFn done;
    NodeId dst = kInvalidNode;
    bool used_remaster = false; // issued async remaster requests
    bool remaster_failed = false;
  };
  std::vector<Entry> entries;
  /// Remaster requests still in flight for this batch; the batch's
  /// execution phase starts only after all are acknowledged (the barrier).
  int outstanding_remasters = 0;
  bool flushed = false;
};

/// A standard-mode transaction waiting for its remaster requests (case 2 of
/// Sec. III) before it executes on `dst`.
struct LionProtocol::Conversion {
  TxnPtr txn;
  TxnDoneFn done;
  std::vector<PartitionId> parts;
  NodeId dst = kInvalidNode;
  int pending = 0;
  bool any_failed = false;
};

LionProtocol::LionProtocol(Cluster* cluster, MetricsCollector* metrics,
                           LionOptions options,
                           std::unique_ptr<PredictorInterface> predictor)
    : Protocol(cluster, metrics),
      options_(options),
      engine_(cluster, metrics),
      router_(cluster, options.planner.plan.cost),
      predictor_(std::move(predictor)),
      planner_(cluster, options_.planner, predictor_.get()),
      current_batch_(std::make_shared<Batch>()) {}

void LionProtocol::Start() {
  planner_.Start();
  if (options_.batch_mode) StartEpochTimer();
}

void LionProtocol::Stop() {
  Protocol::Stop();
  planner_.Stop();
  if (options_.batch_mode) FlushBatch();
}

void LionProtocol::OnEpoch(SimTime now) {
  (void)now;
  FlushBatch();
}

void LionProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  txn->PartitionsInto(&parts_);
  for (PartitionId p : parts_) cluster_->router().RecordAccess(p);
  planner_.RecordTxn(parts_, cluster_->sim()->Now());

  if (options_.batch_mode) {
    SubmitBatch(std::move(txn), std::move(done));
  } else {
    SubmitStandard(std::move(txn), std::move(done));
  }
}

bool LionProtocol::WorthRemastering(PartitionId pid, NodeId dst,
                                    size_t ops_on_pid) const {
  const CostModelConfig& cost = options_.planner.plan.cost;
  double remaster_cost =
      cost.wr * router_.cost_model().CntRemaster(cluster_->router(), pid, dst);
  // Remote execution costs remote_access per partition plus a small per-op
  // component, so stealing mastership for a tiny remote working set only
  // happens when the partition is cold (low f in Eq. 4).
  double remote_cost =
      cost.remote_access * (0.5 + 0.1 * static_cast<double>(ops_on_pid));
  return remaster_cost > 0.0 && remaster_cost <= remote_cost;
}

void LionProtocol::Execute(const std::vector<PartitionId>& parts, NodeId dst,
                           ExecClass cls, TxnPtr txn, TxnDoneFn done) {
  Transaction* raw = txn.get();
  raw->set_exec_class(cls);
  TwoPhaseEngine::Options opts;
  opts.group_commit_visibility = options_.batch_mode;
  engine_.Run(raw, parts, dst, opts,
              CommitOrRetry(std::move(txn), std::move(done)));
}

bool LionProtocol::ClassifyCase(const Transaction& txn,
                                const std::vector<PartitionId>& parts,
                                NodeId dst,
                                std::vector<PartitionId>* need_remaster) const {
  need_remaster->clear();
  for (PartitionId p : parts) {
    if (cluster_->router().PrimaryOf(p) == dst) continue;
    if (cluster_->router().HasSecondary(dst, p) &&
        WorthRemastering(p, dst, txn.CountOps(p))) {
      need_remaster->push_back(p);
    } else {
      // Case 3: some replica missing (or too hot to steal).
      need_remaster->clear();
      return false;
    }
  }
  return true;
}

void LionProtocol::SubmitStandard(TxnPtr txn, TxnDoneFn done) {
  const std::vector<PartitionId>& parts = parts_;
  NodeId dst = router_.Route(parts);

  std::vector<PartitionId> need_remaster;
  if (!ClassifyCase(*txn, parts, dst, &need_remaster)) {
    // Case 3: regular distributed transaction with 2PC.
    fallback_distributed_++;
    Execute(parts, dst, ExecClass::kDistributed, std::move(txn),
            std::move(done));
    return;
  }
  if (need_remaster.empty()) {
    // Case 1: every primary already local — direct single-node execution.
    Execute(parts, dst, ExecClass::kSingleNode, std::move(txn),
            std::move(done));
    return;
  }

  // Case 2: remaster the secondaries onto dst, then execute locally. If any
  // remaster conflicts (another node is converting the same partition), the
  // transaction falls back to distributed execution (Sec. III).
  remaster_requests_ += need_remaster.size();
  auto conv = std::make_shared<Conversion>();
  conv->txn = std::move(txn);
  conv->done = std::move(done);
  conv->parts = parts;
  conv->dst = dst;
  conv->pending = static_cast<int>(need_remaster.size());
  for (PartitionId p : need_remaster) {
    cluster_->remaster().Remaster(p, dst, [this, conv](bool ok) {
      if (!ok) conv->any_failed = true;
      if (--conv->pending > 0) return;
      ExecClass cls = ExecClass::kRemastered;
      if (conv->any_failed) {
        fallback_distributed_++;
        cls = ExecClass::kDistributed;
      } else {
        remaster_conversions_++;
      }
      Execute(conv->parts, conv->dst, cls, std::move(conv->txn),
              std::move(conv->done));
    });
  }
}

void LionProtocol::SubmitBatch(TxnPtr txn, TxnDoneFn done) {
  const std::vector<PartitionId>& parts = parts_;
  NodeId dst = router_.Route(parts);

  Batch::Entry entry;
  entry.dst = dst;
  entry.done = std::move(done);

  // An infeasible (case 3) transaction issues no remasters; the batch
  // re-derives every entry's class at execution.
  std::vector<PartitionId> need_remaster;
  ClassifyCase(*txn, parts, dst, &need_remaster);

  entry.txn = std::move(txn);
  std::shared_ptr<Batch> batch = current_batch_;
  batch->entries.push_back(std::move(entry));
  size_t entry_idx = batch->entries.size() - 1;

  // Asynchronous remastering (Sec. IV-D): issue the requests immediately,
  // do NOT wait — the executor keeps buffering subsequent transactions. The
  // batch index is carried in the callback to locate the context.
  if (!need_remaster.empty()) {
    batch->entries[entry_idx].used_remaster = true;
    remaster_requests_ += need_remaster.size();
    batch->outstanding_remasters += static_cast<int>(need_remaster.size());
    for (PartitionId p : need_remaster) {
      cluster_->remaster().Remaster(
          p, dst, [this, batch, entry_idx](bool ok) {
            if (!ok) batch->entries[entry_idx].remaster_failed = true;
            batch->outstanding_remasters--;
            if (batch->flushed && batch->outstanding_remasters == 0) {
              ExecuteBatch(batch);
            }
          });
    }
  }

  if (batch->entries.size() >= kMaxBatchSize) FlushBatch();

  // After Stop() the epoch timer no longer flushes; a retry resubmitted
  // here (RetryAfterBackoff re-enters Submit) would otherwise sit in the
  // fresh batch forever. Schedule one more flush so its completion fires;
  // deferred an epoch so conflicting locks can clear first.
  if (stopped()) {
    cluster_->sim()->Schedule(cluster_->config().epoch_interval,
                              [this]() { FlushBatch(); });
  }
}

void LionProtocol::FlushBatch() {
  std::shared_ptr<Batch> batch = current_batch_;
  if (batch->entries.empty() || batch->flushed) return;
  current_batch_ = std::make_shared<Batch>();
  batch->flushed = true;
  // Barrier: execution starts only once every remastering request of the
  // batch has been acknowledged.
  if (batch->outstanding_remasters == 0) ExecuteBatch(batch);
}

void LionProtocol::ExecuteBatch(const std::shared_ptr<Batch>& batch) {
  std::vector<PartitionId> parts;
  for (auto& entry : batch->entries) {
    entry.txn->PartitionsInto(&parts);
    // Re-derive the execution class against the post-remaster placement.
    bool single = true;
    for (PartitionId p : parts) {
      if (cluster_->router().PrimaryOf(p) != entry.dst) {
        single = false;
        break;
      }
    }
    ExecClass cls;
    if (!single) {
      cls = ExecClass::kDistributed;
      fallback_distributed_++;
    } else if (entry.used_remaster && !entry.remaster_failed) {
      cls = ExecClass::kRemastered;
      remaster_conversions_++;
    } else {
      cls = ExecClass::kSingleNode;
    }
    Execute(parts, entry.dst, cls, std::move(entry.txn), std::move(entry.done));
  }
}


// Self-registration of the Lion family (Table II): each variant toggles the
// partitioning strategy, batch execution, and the workload predictor. The
// predictor is resolved through PredictorRegistry by `predictor.kind`
// (default "lstm"; "off" disables it even for predicting variants) and
// owned by the protocol instance.
namespace {

std::unique_ptr<Protocol> MakeLionVariant(const ProtocolContext& ctx,
                                          PartitioningStrategy strategy,
                                          bool batch, bool predict) {
  LionOptions opts = ctx.config.lion;
  opts.planner.strategy = strategy;
  opts.batch_mode = batch;
  std::unique_ptr<PredictorInterface> predictor;
  if (predict && ctx.config.predictor.kind != kPredictorOff) {
    // The seed offset keeps the predictor's RNG stream disjoint from the
    // workload/simulator streams derived from the same experiment seed.
    PredictorContext pctx{ctx.config.predictor, ctx.config.seed + 101};
    Status s = PredictorRegistry::Global().Create(ctx.config.predictor.kind,
                                                  pctx, &predictor);
    if (!s.ok()) {
      // ExperimentBuilder::Validate rejects unknown kinds before any factory
      // runs; reaching this means the protocol was constructed directly with
      // an unvalidated config. Surface the cause and fail construction.
      std::fprintf(stderr, "lion: %s\n", s.ToString().c_str());
      return nullptr;
    }
  }
  return std::make_unique<LionProtocol>(ctx.cluster, ctx.metrics, opts,
                                        std::move(predictor));
}

constexpr auto kRearrange = PartitioningStrategy::kReplicaRearrangement;
constexpr auto kSchism = PartitioningStrategy::kSchism;

// Standard-execution Lion with prediction (the non-batch figures).
const ProtocolRegistrar kRegisterLion(
    "Lion", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/false, /*predict=*/true);
    });
const ProtocolRegistrar kRegisterLionS(
    "Lion(S)", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kSchism, /*batch=*/false, /*predict=*/false);
    });
const ProtocolRegistrar kRegisterLionSW(
    "Lion(SW)", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kSchism, /*batch=*/false, /*predict=*/true);
    });
const ProtocolRegistrar kRegisterLionR(
    "Lion(R)", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/false, /*predict=*/false);
    });
const ProtocolRegistrar kRegisterLionRW(
    "Lion(RW)", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/false, /*predict=*/true);
    });
const ProtocolRegistrar kRegisterLionRB(
    "Lion(RB)", ExecutionMode::kBatch, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/true, /*predict=*/false);
    });
// Lion(B) = full batch Lion: rearrangement + prediction + batch execution.
const ProtocolRegistrar kRegisterLionB(
    "Lion(B)", ExecutionMode::kBatch, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/true, /*predict=*/true);
    });

}  // namespace

}  // namespace lion
