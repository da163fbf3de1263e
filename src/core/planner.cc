#include "core/planner.h"

#include <unordered_map>

#include "core/heat_graph.h"
#include "sim/network.h"

namespace lion {

namespace {
/// Per-round exponential decay of the partition access frequencies.
constexpr double kFrequencyDecay = 0.5;
/// B: how many recent transactions the analyzer keeps.
constexpr size_t kHistoryCapacity = 20000;
}  // namespace

Planner::Planner(Cluster* cluster, PlannerConfig config,
                 PredictorInterface* predictor)
    : cluster_(cluster),
      config_(config),
      predictor_(predictor),
      plan_generator_(config.plan),
      history_(kHistoryCapacity),
      tick_timer_(cluster->sim(), [this](SimTime) { RunOnce(); }) {
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    adaptors_.push_back(std::make_unique<Adaptor>(cluster_, n));
  }
}

void Planner::Start() { tick_timer_.Start(config_.interval); }

void Planner::Stop() { tick_timer_.Stop(); }

void Planner::RecordTxn(const std::vector<PartitionId>& parts, SimTime now) {
  history_.Push(parts.data(), parts.size());
  if (predictor_ != nullptr) predictor_->OnTxn(parts, now);
}

void Planner::RunOnce() {
  if (history_.size() < config_.min_history) return;

  // 1. Workload analysis: heat graph over the last B transactions, plus the
  //    K predicted ones injected by the predictor (Fig. 5c).
  HeatGraph graph;
  history_.ForEach([&graph](const PartitionId* parts, size_t n) {
    graph.AddAccess(parts, n, 1.0);
  });
  if (predictor_ != nullptr) {
    predictor_->AugmentGraph(&graph, cluster_->sim()->Now());
  }

  // 2. Clump generation + plan generation.
  std::vector<PlanEntry> entries;
  if (config_.strategy == PartitioningStrategy::kSchism) {
    // Replica-blind repartitioning: every partition whose assigned node is
    // not its current primary is moved by blocking full migration.
    for (const Clump& clump : schism_.Partition(graph, cluster_->router())) {
      for (PartitionId pid : clump.pids) {
        if (cluster_->router().PrimaryOf(pid) != clump.dst) {
          entries.push_back(PlanEntry{PlanAction::kMovePrimary, pid, clump.dst});
        }
      }
    }
  } else {
    // Algorithm 1: replica-aware clump dispatch + load fine-tuning.
    std::vector<Clump> clumps =
        clump_generator_.Generate(graph, cluster_->router());
    entries = plan_generator_.Rearrange(std::move(clumps), cluster_->router())
                  .ToEntries(cluster_->router());
  }
  plans_generated_++;

  // 3. Dispatch entries to each node's adaptor over the network. The
  //    adaptor applies them asynchronously; foreground transactions are
  //    never stalled by planning.
  std::unordered_map<NodeId, std::vector<PlanEntry>> by_node;
  for (const PlanEntry& e : entries) by_node[e.node].push_back(e);
  for (auto& [node, node_entries] : by_node) {
    uint64_t bytes = MessageSizes::kHeader +
                     node_entries.size() * MessageSizes::kPlanEntry;
    Adaptor* adaptor = adaptors_[node].get();
    entries_dispatched_ += node_entries.size();
    cluster_->network().Send(planner_endpoint(), node, bytes,
                             [adaptor, payload = std::move(node_entries)]() {
                               for (const PlanEntry& e : payload) {
                                 adaptor->Apply(e);
                               }
                             });
  }

  // 4. Age the frequency statistics so the next round tracks recent load.
  cluster_->router().DecayFrequencies(kFrequencyDecay);
}

}  // namespace lion
