#include "protocols/calvin.h"

#include "protocols/batch_util.h"

#include "harness/registry.h"

namespace lion {

namespace {
/// Lock-manager processing time per lock request (one per op).
constexpr SimTime kLockCostPerOp = 2 * kMicrosecond;
/// Sequencer processing time per transaction (ordering/dispatch).
constexpr SimTime kSequencerCostPerTxn = 1 * kMicrosecond;
}  // namespace

CalvinProtocol::CalvinProtocol(Cluster* cluster, MetricsCollector* metrics)
    : BatchProtocol(cluster, metrics) {
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    lock_managers_.push_back(std::make_unique<WorkerPool>(cluster->sim(), 1));
  }
  sequencer_ = std::make_unique<WorkerPool>(cluster->sim(), 1);
}

/// One transaction's deterministic run, shared by its participants'
/// closures. `parts` lists the touched partitions once, with their op
/// counts; `pending` counts the outstanding lock grants, then the
/// outstanding executions; `phase_start` is when the current phase began.
struct CalvinProtocol::TxnRun {
  struct Part {
    PartitionId pid;
    int ops;
  };

  /// Ops on the partitions whose primary is currently `node`.
  int OpsAt(const RouterTable& router, NodeId node) const {
    int n = 0;
    for (const Part& part : parts)
      if (router.PrimaryOf(part.pid) == node) n += part.ops;
    return n;
  }

  Item item;
  std::vector<Part> parts;  // ascending by pid
  std::vector<NodeId> participants;
  int pending = 0;
  SimTime phase_start = 0;
};

void CalvinProtocol::ExecuteBatch(std::vector<Item> batch) {
  // The sequencer fixes the order and dispatches; its serial processing is
  // part of the deterministic pipeline's cost.
  for (auto& item : batch) {
    sequencer_->Submit(TaskPriority::kService, kSequencerCostPerTxn,
                       [this, item = std::move(item)]() mutable {
                         RunDeterministic(std::move(item));
                       });
  }
}

void CalvinProtocol::RunDeterministic(Item item) {
  Transaction* txn = item.txn.get();
  auto run = std::make_shared<TxnRun>();
  for (PartitionId pid : PartitionsOf(*txn))
    run->parts.push_back({pid, txn->CountOps(pid)});
  std::vector<NodeId>& participants = run->participants;
  // Participant nodes (by current primary placement).
  for (const TxnRun::Part& part : run->parts) {
    NodeId n = cluster_->router().PrimaryOf(part.pid);
    bool seen = false;
    for (NodeId p : participants) seen |= (p == n);
    if (!seen) participants.push_back(n);
  }
  bool multi_home = participants.size() > 1;
  txn->set_exec_class(multi_home ? ExecClass::kDistributed
                                 : ExecClass::kSingleNode);
  txn->set_coordinator(participants.empty() ? 0 : participants[0]);
  run->item = std::move(item);
  run->pending = static_cast<int>(participants.size());
  run->phase_start = cluster_->sim()->Now();

  // Lock acquisition through each participant's single-threaded manager, in
  // deterministic order (the batch arrives pre-ordered by the sequencer).
  for (NodeId np : participants) {
    int local_ops = run->OpsAt(cluster_->router(), np);
    lock_managers_[np]->Submit(TaskPriority::kService,
                               local_ops * kLockCostPerOp, [this, run]() {
                                 if (--run->pending == 0) Execute(run);
                               });
  }
  if (participants.empty()) Execute(run);
}

void CalvinProtocol::Execute(const std::shared_ptr<TxnRun>& run) {
  // Execution: each participant reads its local ops; multi-home txns then
  // broadcast read results to each other (one communication round).
  Transaction* txn = run->item.txn.get();
  txn->breakdown().scheduling += cluster_->sim()->Now() - run->phase_start;
  const ClusterConfig& cfg = cluster_->config();
  run->pending = static_cast<int>(run->participants.size());
  run->phase_start = cluster_->sim()->Now();
  for (NodeId np : run->participants) {
    int local_ops = run->OpsAt(cluster_->router(), np);
    cluster_->pool(np)->Submit(
        TaskPriority::kResume,
        cfg.txn_setup_cost + local_ops * cfg.op_local_cost,
        [this, run, txn, np]() {
          for (const TxnRun::Part& part : run->parts) {
            if (cluster_->router().PrimaryOf(part.pid) == np)
              Occ::ReadOps(cluster_->store(part.pid), txn);
          }
          if (run->participants.size() == 1) {
            FinishExecution(run, np);
            return;
          }
          // Broadcast local reads to the other participants.
          auto acks = std::make_shared<batch_util::Join>(
              run->participants.size() - 1,
              [this, run, np]() { FinishExecution(run, np); });
          uint64_t bytes = MessageSizes::kHeader +
                           static_cast<uint64_t>(txn->ops().size()) *
                               MessageSizes::kOpResponse;
          for (NodeId other : run->participants) {
            if (other == np) continue;
            cluster_->network().Send(np, other, bytes,
                                     [acks]() { acks->Arrive(); });
          }
        });
  }
}

void CalvinProtocol::FinishExecution(const std::shared_ptr<TxnRun>& run,
                                     NodeId np) {
  if (--run->pending > 0) return;
  run->item.txn->breakdown().execution +=
      cluster_->sim()->Now() - run->phase_start;
  // Apply writes at each participant, then epoch-commit.
  ApplyAndCommit(std::move(run->item), np);
}


// Self-registration: resolving "Calvin" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterCalvinProtocol(
    "Calvin", ExecutionMode::kBatch,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<CalvinProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
