#include "core/plan_generator.h"

#include <algorithm>
#include <limits>

namespace lion {

namespace {
/// A: number of fine-tuning moves between FindOINodes re-derivations.
constexpr int kStepBudget = 8;
}  // namespace

NodeId PlanGenerator::FindDstNode(const Clump& clump, const RouterTable& table,
                                  const std::vector<double>& balance,
                                  std::vector<double>* costs_out) const {
  NodeId best = kInvalidNode;
  double best_cost = std::numeric_limits<double>::max();
  for (NodeId n = 0; n < table.num_nodes(); ++n) {
    double cost = cost_model_.PlacementCost(table, clump, n);
    if (costs_out != nullptr) (*costs_out)[n] = cost;
    if (!table.IsNodeUp(n)) continue;  // never place on a failed node
    if (best == kInvalidNode || cost < best_cost ||
        (cost == best_cost && balance[n] < balance[best])) {
      best_cost = cost;
      best = n;
    }
  }
  return best == kInvalidNode ? 0 : best;
}

bool PlanGenerator::CheckBalance(double avg,
                                 const std::vector<double>& balance) const {
  double theta = avg * (1.0 + config_.epsilon);
  for (double b : balance) {
    if (b > theta) return false;
  }
  return true;
}

ReconfigurationPlan PlanGenerator::Rearrange(std::vector<Clump> clumps,
                                             const RouterTable& table) const {
  const int num_nodes = table.num_nodes();
  ReconfigurationPlan plan;

  // mc: interim cost matrix, one row per clump (Algorithm 1 line 2).
  std::vector<std::vector<double>> mc(clumps.size(),
                                      std::vector<double>(num_nodes, 0.0));
  std::vector<double> balance(num_nodes, 0.0);
  // q_i: clumps assigned to node i, kept sorted ascending by weight (line 6).
  std::vector<std::vector<size_t>> q(num_nodes);

  // --- Step 1: clump dispatching (lines 4-7) --------------------------------
  double load_sum = 0.0;
  for (size_t i = 0; i < clumps.size(); ++i) {
    clumps[i].dst = FindDstNode(clumps[i], table, balance, &mc[i]);
    plan.total_cost += mc[i][clumps[i].dst];
    q[clumps[i].dst].push_back(i);
    balance[clumps[i].dst] += clumps[i].weight;
    load_sum += clumps[i].weight;
  }
  for (auto& queue : q) {
    std::sort(queue.begin(), queue.end(), [&clumps](size_t a, size_t b) {
      return clumps[a].weight < clumps[b].weight;
    });
  }

  // --- Step 2: load fine-tuning (lines 8-25) --------------------------------
  double avg = load_sum / num_nodes;
  bool is_done = false;
  while (!CheckBalance(avg, balance) && !is_done) {
    int step = kStepBudget;

    // FindOINodes: overloaded (above θ) and idle (below average) nodes.
    double theta = avg * (1.0 + config_.epsilon);
    std::vector<NodeId> overloaded, idle;
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (balance[n] > theta) overloaded.push_back(n);
      else if (balance[n] < avg && table.IsNodeUp(n)) idle.push_back(n);
    }
    if (overloaded.empty() || idle.empty()) break;

    while (!CheckBalance(avg, balance) && step > 0) {
      // PickClump: from the most loaded node, the largest clump that fits
      // the gap; destination = the idle node with the lowest interim cost.
      bool found = false;
      size_t pick_idx = 0;
      NodeId pick_dst = kInvalidNode;

      std::sort(overloaded.begin(), overloaded.end(),
                [&balance](NodeId a, NodeId b) { return balance[a] > balance[b]; });
      for (NodeId on : overloaded) {
        double gap = balance[on] - avg;
        // q[on] ascends by weight: scan from the back for the largest <= gap.
        for (auto it = q[on].rbegin(); it != q[on].rend(); ++it) {
          size_t ci = *it;
          if (clumps[ci].dst != on) continue;  // already moved away
          if (clumps[ci].weight > gap || clumps[ci].weight <= 0.0) continue;
          double best_cost = std::numeric_limits<double>::max();
          for (NodeId in : idle) {
            if (mc[ci][in] < best_cost) {
              best_cost = mc[ci][in];
              pick_dst = in;
            }
          }
          if (pick_dst != kInvalidNode) {
            pick_idx = ci;
            found = true;
          }
          break;
        }
        if (found) break;
      }
      if (!found) {
        is_done = true;
        break;
      }

      // Move the clump (lines 18-19).
      NodeId from = clumps[pick_idx].dst;
      balance[from] -= clumps[pick_idx].weight;
      balance[pick_dst] += clumps[pick_idx].weight;
      plan.total_cost += mc[pick_idx][pick_dst] - mc[pick_idx][from];
      clumps[pick_idx].dst = pick_dst;
      q[pick_dst].push_back(pick_idx);
      plan.fine_tune_moves++;

      // Refresh overloaded/idle membership cheaply (lines 20-23).
      double th = avg * (1.0 + config_.epsilon);
      overloaded.erase(std::remove_if(overloaded.begin(), overloaded.end(),
                                      [&](NodeId n) { return balance[n] <= th; }),
                       overloaded.end());
      idle.erase(std::remove_if(idle.begin(), idle.end(),
                                [&](NodeId n) { return balance[n] >= avg; }),
                 idle.end());
      if (overloaded.empty() || idle.empty()) {
        step = 0;
      } else {
        step--;
      }
    }
    if (step == kStepBudget) is_done = true;  // no progress (line 24)
  }

  plan.assignments = std::move(clumps);
  return plan;
}

}  // namespace lion
