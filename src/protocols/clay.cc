#include "protocols/clay.h"

#include <algorithm>

#include "harness/registry.h"

namespace lion {

namespace {
/// Load imbalance tolerance: repartitioning triggers when the hottest
/// node's worker-busy share exceeds (1 + kEpsilon) * average.
constexpr double kEpsilon = 0.20;
}  // namespace

ClayProtocol::ClayProtocol(Cluster* cluster, MetricsCollector* metrics,
                           ClayConfig config)
    : Protocol(cluster, metrics),
      engine_(cluster, metrics),
      config_(config),
      prev_busy_(cluster->num_nodes(), 0),
      monitor_timer_(cluster->sim(), [this](SimTime) { Monitor(); }) {}

void ClayProtocol::Start() {
  stopped_ = false;
  monitor_timer_.Start(config_.monitor_interval);
}

void ClayProtocol::Stop() {
  Protocol::Stop();
  monitor_timer_.Stop();
}

void ClayProtocol::Monitor() {
  // Per-node worker busy time over the last monitoring window.
  int n = cluster_->num_nodes();
  std::vector<double> load(n, 0.0);
  double total = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    SimTime busy = cluster_->pool(i)->busy_time();
    load[i] = static_cast<double>(busy - prev_busy_[i]);
    prev_busy_[i] = busy;
    total += load[i];
  }
  if (total <= 0.0) return;
  double avg = total / n;
  NodeId hottest = 0, coolest = 0;
  for (NodeId i = 1; i < n; ++i) {
    if (load[i] > load[hottest]) hottest = i;
    if (load[i] < load[coolest]) coolest = i;
  }
  if (load[hottest] <= avg * (1.0 + kEpsilon)) return;  // balanced

  // Build the migrating clump: the `clump_budget` partitions mastered on
  // the overloaded node with the highest access frequency.
  std::vector<PartitionId> on_hot = cluster_->router().PrimariesOn(hottest);
  std::sort(on_hot.begin(), on_hot.end(), [this](PartitionId a, PartitionId b) {
    return cluster_->router().RawFrequency(a) > cluster_->router().RawFrequency(b);
  });
  int moved = 0;
  for (PartitionId pid : on_hot) {
    if (moved >= config_.clump_budget) break;
    moved++;
    repartitions_++;
    NodeId target = coolest;
    // Asynchronous replication + remastering (per the paper's Clay setup).
    if (cluster_->router().HasSecondary(target, pid)) {
      cluster_->remaster().Remaster(pid, target, [](bool) {});
    } else {
      // AddReplica has enforced the replica cap by the time `done` runs.
      cluster_->migration().AddReplica(pid, target, [this, pid, target](bool ok) {
        if (ok) cluster_->remaster().Remaster(pid, target, [](bool) {});
      });
    }
  }
}

void ClayProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  txn->PartitionsInto(&parts_);
  for (PartitionId pid : parts_) cluster_->router().RecordAccess(pid);

  NodeId coord = cluster_->router().MostPrimariesNode(parts_);
  Transaction* raw = txn.get();
  engine_.Run(raw, parts_, coord, TwoPhaseEngine::Options{},
              CommitOrRetry(std::move(txn), std::move(done)));
}


// Self-registration: resolving "Clay" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterClayProtocol(
    "Clay", ExecutionMode::kStandard,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<ClayProtocol>(ctx.cluster, ctx.metrics, ctx.config.clay);
    });
}  // namespace

}  // namespace lion
